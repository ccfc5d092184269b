"""Exact interval exchange transformations with flips.

Core objects (:mod:`fiet.core`), Rauzy induction and transition matrices
(:mod:`fiet.induction`), orbit statistics and the oracle cross-check
(:mod:`fiet.orbits`), the explicit 8-interval construction and its
renormalization schedule (:mod:`fiet.construction`), the machine
verification suite (:mod:`fiet.verify`), stable serialization
(:mod:`fiet.serialize`), and a command-line interface (:mod:`fiet.cli`).
"""

from types import ModuleType as _ModuleType

from .core import (
    DomainError,
    Fiet,
    FietCombinatorics,
    FietError,
    FlipDiscontinuityError,
    OracleInapplicable,
    OrbitPoint,
    OrbitTerminated,
    ResourceLimitError,
    domain_partition,
    evaluate,
    first_return,
    is_irreducible,
    iterate,
    range_partition,
)
from .induction import (
    KeaneViolation,
    RauzyPath,
    StepOutcome,
    TransitionMatrix,
    apply_path,
    length_driven_letters,
    rauzy_step,
    symbolic_step,
)
from .construction import (
    ConstructionBrokenError,
    LimitReport,
    ParameterSchedule,
    PathParameters,
    SEED_LABELS,
    Tower,
    base_datum,
    build_path,
    cycle_states,
    limit_vectors,
    matrix_fidelity_report,
    normalize,
    reference_column_sums,
    reference_row_sums,
    reference_theta,
    theta_copy,
    theta_gamma_p,
)
from .orbits import (
    FrequencyReport,
    StartResult,
    birkhoff_frequencies,
    frequency_l1_gaps,
    l1_distance,
    midpoint_starts,
    oracle_crosscheck,
)
from .record import InequalityRecord
from .verify import (
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_separation,
    checked_levels,
    lemma_towers,
    tower_vectors,
    verify_all,
)

__version__ = "1.0.0"

# The public names are the names imported above, in import order; the
# submodules that importing them binds here are not.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
