"""rbx: exact-arithmetic verification of Rota-Baxter-type operator
identities, the dendriform and NS structures they induce, Hochschild
cochain calculus, the Gerstenhaber bracket engine, and exponential flows
on abelian extensions.

All arithmetic is exact (rationals or small prime fields); every check is
a zero-tolerance identity on basis tuples, with brute-force enumeration
over F_p available as an independent oracle.

The package is lazy (PEP 562): `import rbx` loads no submodule, and a
public name imports its submodule on first use.  No submodule imports
numpy, `hashlib` or `fractions` when it loads; see `linalg` for when
numpy is imported, and `fields` for when `fractions` is.
`from rbx import X`, `rbx.X`, `dir(rbx)` and `from rbx import *` see
every name below.
"""

import importlib

# submodule -> the public names it lends the package
_EXPORTS = {
    "algebra": ("Algebra", "Bimodule", "Verdict", "assoc_check",
                "bimodule_check", "canonical_bimodule"),
    "cochains": ("Cochain", "coboundary", "is_cocycle"),
    "errors": ("CapacityError", "CharacteristicError", "InputError",
               "RbxError"),
    "fields": ("F2", "F3", "F5", "FpElement", "PrimeField", "QQ",
               "RationalField"),
    "flows": ("FlowResult", "addexp_check", "exp_flow", "hamiltonian_field"),
    "gerstenhaber": ("MultiMap", "bar_circ", "circ_i", "g_bracket"),
    "linalg": (),
    "operators": ("OperatorInstance", "aybe_residual", "is_classical_rb",
                  "is_grb", "is_nijenhuis", "is_reynolds", "is_trb",
                  "lift_cocycle", "lift_operator", "reynolds_as_twisted",
                  "search_operators", "structure_residual"),
    "structures": ("Dendriform", "NSAlgebra", "check_dendriform",
                   "check_ns", "dendriform_from_grb", "derivation_dual",
                   "grb_morphism_check", "induced_actions", "ns_from_trb",
                   "total_product"),
}

# public name -> the submodule that defines it (a submodule names itself)
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
