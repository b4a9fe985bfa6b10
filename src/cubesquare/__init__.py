"""Exact arithmetic for degree-12 binary forms splitting as a cube plus a square.

Subpackages cover: exact fields and polynomials (``fields``, ``poly``,
``binform``), the discriminant bridge for quartic/cubic families
(``families``), Weierstrass models of rational elliptic fibrations
(``fibration``), E8 lattice combinatorics (``e8``), the rank-10 Picard
lattice (``picard``), the trigonal construction on monodromy tuples
(``recillas``), and the cube-plus-square decomposition locus (``locusz``).
"""

__version__ = "0.1.0"


# Submodules that load on first use: numpy comes with ``_kernels``, which only
# the scan needs (``cli`` imports every other module).
_LAZY = ("_kernels",)


def __getattr__(name):
    # ``cubesquare._kernels`` still resolves for a caller that walks the
    # package before any scan has run.
    if name in _LAZY:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
