"""Census of ring multiplications compatible with a fixed abelian addition.

The toolkit answers, exactly and exhaustively at desk scale, the question
of how much freedom an abelian group leaves for a compatible ring
multiplication: on windowed integers every distributive multiplication is
a scaled product a*n*m (unital only at a = +-1), on Z/N the census finds
exactly N multiplications, and on matrix groups two genuinely different
ring structures share one addition.

The census modules are imported with the package. The public names of
``scaled`` and ``matrices``, which no census runs, are served on first
use through a module ``__getattr__`` (PEP 562), so a census command
never loads either module. Each lookup reads the submodule's current
binding; the package keeps no copy of it.
"""

from .abelian import (
    DEFAULT_ELEMENT_CAP,
    INT_CAPACITY,
    GroupElement,
    GroupSpec,
    IntegerWindow,
    add,
    all_elements,
    checked,
    element_order,
    scalar_mul,
)
from .enumeration import (
    CyclicClassification,
    RigidityReport,
    SearchConfig,
    classify_cyclic,
    enumerate_multiplications,
    expand_to_full_table,
    full_table_oracle,
    rigidity_report,
    search_space_size,
)
from .errors import (
    CapacityError,
    IntegerOverflowError,
    InvariantViolation,
    UsageError,
)
from .structures import (
    RingStructure,
    StructureConstants,
    check_associativity,
    check_commutativity,
    check_distributivity_blackbox,
    cyclic_constants,
    find_unit,
)

__version__ = "0.1.0"

# the submodule of each public name served on first use
_LAZY = {
    name: module
    for module, names in {
        "matrices": (
            "HADAMARD",
            "STANDARD",
            "MatrixElement",
            "all_matrices",
            "mat_add",
            "mat_mul_hadamard",
            "mat_mul_standard",
            "noncommutativity_witness",
            "unit_matrix",
        ),
        "scaled": (
            "ScaledMult",
            "check_scaled_unitality",
            "extract_scale",
            "find_pm1_violation",
            "find_unit_windowed",
            "scale_ring",
            "scaled_unit_sweep",
            "unit_of_scaled",
            "usual_cyclic_ring",
            "verify_scaled_form",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
