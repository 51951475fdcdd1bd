"""Verification toolkit for the two-component planar Dirac equation.

Layers:

- ``algebra``: exact 2x2 Pauli/gamma/SO(2,1)-generator algebra and the
  closed-form matrix exponential.
- ``planewave``: plane-wave solutions, indefinite-metric orthonormalization,
  and residual oracles for the Dirac and Klein-Gordon operators.
- ``fock``: finite-mode second quantization on a 4^M-dimensional space,
  anti-commutator checks, Hamiltonian positivity, and hole-electron pair
  operators with their bosonic commutators.
- ``nonrel``: spectral time evolution, the non-relativistic (Schrodinger)
  reduction, minimal coupling, and a Landau-level validation.
- ``cli``: subcommands running each verification suite with JSON reports.

The ``planewave`` names in ``__all__`` are re-exported lazily (PEP 562): the
first access imports ``planewave``, so ``import planardirac`` loads no numpy.
``cli`` sets the OpenBLAS thread count before numpy loads, which works only
if importing the package has not loaded it already.
"""

__all__ = [
    "Branch",
    "DegenerateNormalizationError",
    "Momentum",
    "PhysicalParams",
    "PlaneWaveSolution",
    "dispersion_omega",
    "plane_wave",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        from . import planewave
        return getattr(planewave, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
