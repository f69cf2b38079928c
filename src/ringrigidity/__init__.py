"""Census of ring multiplications compatible with a fixed abelian addition.

The toolkit answers, exactly and exhaustively at desk scale, the question
of how much freedom an abelian group leaves for a compatible ring
multiplication: on windowed integers every distributive multiplication is
a scaled product a*n*m (unital only at a = +-1), on Z/N the census finds
exactly N multiplications, and on matrix groups two genuinely different
ring structures share one addition.

Only ``errors`` is imported with the package. Every other public name is
served on first use through a module ``__getattr__`` (PEP 562), so a
command loads only the modules it runs. Each lookup reads the
submodule's current binding; the package keeps no copy of it.
"""

from .errors import (
    CapacityError,
    IntegerOverflowError,
    InvariantViolation,
    UsageError,
)

__version__ = "0.1.0"

# the submodule of each public name served on first use
_LAZY = {
    name: module
    for module, names in {
        "abelian": (
            "DEFAULT_ELEMENT_CAP", "INT_CAPACITY", "GroupElement", "GroupSpec",
            "IntegerWindow", "add", "all_elements", "checked", "element_order",
            "scalar_mul",
        ),
        "enumeration": (
            "CyclicClassification", "RigidityReport", "SearchConfig",
            "classify_cyclic", "enumerate_multiplications", "expand_to_full_table",
            "full_table_oracle", "rigidity_report", "search_space_size",
        ),
        "matrices": (
            "HADAMARD", "STANDARD", "MatrixElement", "all_matrices", "mat_add",
            "mat_mul_hadamard", "mat_mul_standard", "noncommutativity_witness",
            "unit_matrix",
        ),
        "scaled": (
            "ScaledMult", "check_scaled_unitality", "extract_scale",
            "find_pm1_violation", "find_unit_windowed", "scale_ring",
            "scaled_unit_sweep", "unit_of_scaled", "usual_cyclic_ring",
            "verify_scaled_form",
        ),
        "structures": (
            "RingStructure", "StructureConstants", "check_associativity",
            "check_commutativity", "check_distributivity_blackbox",
            "cyclic_constants", "find_unit",
        ),
    }.items()
    for name in names
}

# a star import gives every public name, so it loads every module
__all__ = ["CapacityError", "IntegerOverflowError", "InvariantViolation", "UsageError"]
__all__ += sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
