"""Finite-mode second quantization of the planar Dirac field.

A ModeSet fixes M integer wave-vectors n on a periodic box of side L, the
momenta k = 2*pi*n/L; each carries an electron and a positron fermionic mode,
so the state space has dimension 4^M.  Mode operators are Jordan-Wigner
encoded over a fixed ordering (electrons first, positrons second), which makes
every anti-commutation relation hold exactly: operator entries are integers,
so the checks below report literal zeros.

The continuum-to-box dictionary used throughout: momentum integrals become
mode sums, Dirac deltas become Kronecker deltas, and the field-expansion
normalization 1/(2pi) becomes 1/L.  Both terms of the field operator carry
the phase exp[+i(k.r - w t)]; with the indefinite-metric orthonormalization
of the plane-wave spinors this reproduces the quadratic Hamiltonian
sum_k hbar*w(k) (b'b - d d') exactly, which ``hamiltonian_from_field``
demonstrates by brute-force spatial integration.
"""

from __future__ import annotations

import collections
import functools
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .algebra import anticommutator, commutator, pauli
from .planewave import (
    NATURAL_UNITS,
    Branch,
    Momentum,
    PhysicalParams,
    dispersion_omega,
    normalize,
    build_u,
    build_v,
)

M_MAX = 6

ELECTRON = "electron"
POSITRON = "positron"

_SIGMA3 = pauli(3)


class CapacityError(ValueError):
    """Requested mode count exceeds the supported state-space size."""


@dataclass(frozen=True)
class ModeSet:
    """Ordered distinct integer wave-vectors n = (nx, ny) on a periodic box of
    side L; mode i carries the momentum k = 2*pi*n/L."""

    wave_vectors: tuple
    box_side: float
    params: PhysicalParams = NATURAL_UNITS
    momenta: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            wave_vectors = tuple((operator.index(nx), operator.index(ny))
                                 for nx, ny in self.wave_vectors)
        except TypeError:
            raise ValueError(
                f"wave-vectors must be integer pairs, got {self.wave_vectors!r}") from None
        if len(wave_vectors) < 1:
            raise ValueError("ModeSet needs at least one wave-vector")
        if self.box_side <= 0:
            raise ValueError("box side must be positive")
        if len(set(wave_vectors)) != len(wave_vectors):
            raise ValueError(f"duplicate wave-vector in ModeSet {wave_vectors}")
        unit = 2.0 * np.pi / self.box_side
        object.__setattr__(self, "wave_vectors", wave_vectors)
        object.__setattr__(self, "momenta",
                           tuple(Momentum(unit * nx, unit * ny) for nx, ny in wave_vectors))

    def __len__(self):
        return len(self.wave_vectors)

    def omega(self, i: int) -> float:
        return dispersion_omega(self.momenta[i], self.params)

    def partner_index(self, i: int) -> int:
        """Index of the wave-vector -n for mode i (n = 0 partners itself)."""
        nx, ny = self.wave_vectors[i]
        try:
            return self.wave_vectors.index((-nx, -ny))
        except ValueError:
            raise ValueError(
                f"ModeSet has no partner wave-vector ({-nx}, {-ny}) for mode {i}") from None


_DEFAULT_INTEGER_MODES = {
    1: [(0, 0)],
    2: [(1, 0), (-1, 0)],
    3: [(0, 0), (1, 0), (-1, 0)],
    4: [(1, 0), (-1, 0), (0, 1), (0, -1)],
    5: [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
    6: [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
}


def default_symmetric_modes(n_modes: int, box_side: float = 2.0 * np.pi,
                            params: PhysicalParams = NATURAL_UNITS) -> ModeSet:
    """Momentum-symmetric ModeSet (every k paired with -k) of size n_modes."""
    if n_modes not in _DEFAULT_INTEGER_MODES:
        raise CapacityError(f"no default mode pattern for M={n_modes}; M must be in 1..{M_MAX}")
    return ModeSet(_DEFAULT_INTEGER_MODES[n_modes], box_side, params)


@dataclass
class FockOperator:
    """Square CSR operator matrix tied to its FockSpace.

    Operators from different spaces refuse to combine; this catches mixed-up
    mode orderings before they silently corrupt a sign string.
    """

    matrix: object
    space: "FockSpace"

    def _coerce(self, other):
        if not isinstance(other, FockOperator):
            raise TypeError(f"cannot combine FockOperator with {type(other).__name__}")
        if other.space is not self.space:
            raise ValueError("cannot combine operators from different FockSpaces")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return FockOperator(self.matrix + other.matrix, self.space)

    def __sub__(self, other):
        other = self._coerce(other)
        return FockOperator(self.matrix - other.matrix, self.space)

    def __mul__(self, scalar):
        return FockOperator(self.matrix * scalar, self.space)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        return FockOperator(self.matrix @ other.matrix, self.space)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T.tocsr(), self.space)

    def max_abs(self) -> float:
        return float(np.abs(self.matrix.data).max(initial=0.0))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def expectation(self, vec: np.ndarray) -> complex:
        return complex(np.vdot(vec, self.matrix @ vec))

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def off_diagonal(self) -> "FockOperator":
        """This operator minus its diagonal part in the occupation basis."""
        return self - FockOperator(sparse.diags(self.diagonal(), format="csr"), self.space)

    def trace(self) -> complex:
        return complex(self.diagonal().sum())

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of a Hermitian operator (densifies; small spaces only)."""
        return np.linalg.eigvalsh(self.matrix.toarray())

    def hermiticity_defect(self) -> float:
        return (self - self.dagger()).max_abs()


class FockSpace:
    """4^M-dimensional fermionic Fock space over a ModeSet.

    Jordan-Wigner chain positions: electron mode i sits at position i,
    positron mode i at position M + i.  ``weights[j]`` = 2^(2M-1-j) is the
    basis-index bit of position j, so position 0 is the most significant bit
    and the vacuum is index 0.  ``occupation`` tabulates that layout once, one
    row of 0/1 per basis state, and every operator and decoding reads it.
    Operators are sparse at every M, the usual storage for Jordan-Wigner
    operators (OpenFermion, McClean et al., arXiv:1710.07629).
    """

    def __init__(self, modes: ModeSet):
        n = len(modes)
        if n > M_MAX:
            raise CapacityError(f"M={n} exceeds M_max={M_MAX} (dimension 4^M)")
        self.modes = modes
        self.n_modes = n
        self.n_positions = 2 * n
        self.dim = 4**n
        self.weights = 1 << (self.n_positions - 1 - np.arange(self.n_positions))
        self.occupation = ((np.arange(self.dim)[:, None] & self.weights) != 0).astype(np.int64)
        self._lowering = [self._lowering_matrix(j) for j in range(self.n_positions)]
        self._raising = [FockOperator(m, self).dagger().matrix for m in self._lowering]
        self._spinors = {}  # (branch, mode index) -> normalized spinor, filled on first use

    def _lowering_matrix(self, position: int):
        """Jordan-Wigner annihilator as CSR: row r, with the position empty,
        holds the one entry (-1)^(occupied positions before it) at column
        r + weight, the state that differs from r by that bit alone."""
        empty = self.occupation[:, position] == 0
        rows = np.flatnonzero(empty)
        signs = 1 - 2 * (self.occupation[rows, :position].sum(axis=1) % 2)
        return sparse.csr_matrix(
            (signs.astype(complex), rows + self.weights[position],
             np.concatenate(([0], np.cumsum(empty)))),
            shape=(self.dim, self.dim))

    @property
    def params(self) -> PhysicalParams:
        return self.modes.params

    def _position(self, species: str, index: int) -> int:
        if species not in (ELECTRON, POSITRON):
            raise ValueError(f"species must be {ELECTRON!r} or {POSITRON!r}, got {species!r}")
        if not (0 <= index < self.n_modes):
            raise ValueError(f"mode index {index} out of range [0, {self.n_modes})")
        return index if species == ELECTRON else self.n_modes + index

    def annihilation(self, species: str, index: int) -> FockOperator:
        return FockOperator(self._lowering[self._position(species, index)], self)

    def creation(self, species: str, index: int) -> FockOperator:
        return FockOperator(self._raising[self._position(species, index)], self)

    def number(self, species: str, index: int) -> FockOperator:
        return self.creation(species, index) @ self.annihilation(species, index)

    def identity(self) -> FockOperator:
        return FockOperator(sparse.identity(self.dim, dtype=complex, format="csr"), self)

    def zero(self) -> FockOperator:
        return FockOperator(sparse.csr_matrix((self.dim, self.dim), dtype=complex), self)

    def vacuum(self) -> np.ndarray:
        state = np.zeros(self.dim, dtype=complex)
        state[0] = 1.0
        return state

    def basis_index(self, electron_occ, positron_occ) -> int:
        occ = list(electron_occ) + list(positron_occ)
        if len(occ) != self.n_positions:
            raise ValueError("occupation lists must cover every mode")
        return int(self.weights[np.asarray(occ, dtype=bool)].sum())

    def occupations(self, index: int):
        """(electron occupations, positron occupations) of a basis index."""
        row = self.occupation[index].tolist()
        return tuple(row[: self.n_modes]), tuple(row[self.n_modes:])

    def spinor(self, branch: Branch, index: int) -> np.ndarray:
        """Normalized spinor of one mode, computed on its first request; a
        degenerate normalization raises at every request."""
        key = (branch, index)
        if key not in self._spinors:
            k = self.modes.momenta[index]
            raw = build_u(k, self.params) if branch is Branch.POSITIVE else build_v(k, self.params)
            self._spinors[key] = normalize(raw, branch)
        return self._spinors[key]

    @functools.cached_property
    def _field_pattern(self):
        """CSR pattern of b_0, d_0', b_1, d_1', ...: the 2M operators of one
        field component, as (column indices, row pointers, term number of
        each stored entry, its +-1 value).

        Column minus row is +2^j for b and -2^j for d', a different offset
        for every term, so their supports are disjoint and each component of
        the field is one data vector on this fixed pattern.  Plain arrays:
        the pattern holds no reference back to the space.
        """
        n = self.n_modes
        terms = [m for i in range(n) for m in (self._lowering[i], self._raising[n + i])]
        # Disjoint supports: each stored entry of the sum is +-(term number + 1),
        # kept as small integers since the space holds the pattern.
        encoded = functools.reduce(operator.add, [(t + 1) * m.real for t, m in enumerate(terms)])
        signed_term = encoded.data.astype(np.int8)
        return encoded.indices, encoded.indptr, np.abs(signed_term) - 1, np.sign(signed_term)


def build_space(modes: ModeSet) -> FockSpace:
    """Fix mode ordering and fermionic sign convention for a ModeSet."""
    return FockSpace(modes)


def verify_ccr(space: FockSpace) -> dict[tuple[str, str], float]:
    """Worst deviation of every anti-commutator family of the mode operators.

    One pass over the Jordan-Wigner chain: {a_p, a_q} and {a'_p, a'_q} for
    p <= q, and {a_p, a'_q} for every (p, q) with I subtracted at p = q, the
    Kronecker form of {b(k), b'(k')} = {d(k), d'(k')} = delta_kk' * I; every
    other anti-commutator vanishes.  Keys name the family by its two operator
    kinds, "b" or "d" by chain position with "+" for a creator: ("b", "b"),
    ("d", "d"), ("b", "d"), the same three with "+" on both, ("b", "d+"),
    ("d", "b+"), ("b", "b+") and ("d", "d+").  All matrices involved are
    integer-valued, so deviations are exactly zero.
    """
    kinds = ["b"] * space.n_modes + ["d"] * space.n_modes  # by chain position
    lowering = [FockOperator(m, space) for m in space._lowering]
    raising = [FockOperator(m, space) for m in space._raising]
    eye = space.identity()
    deviations = collections.defaultdict(list)
    for p, kind in enumerate(kinds):
        for q in range(p, len(kinds)):
            deviations[kind, kinds[q]].append(
                anticommutator(lowering[p], lowering[q]).max_abs())
            deviations[kind + "+", kinds[q] + "+"].append(
                anticommutator(raising[p], raising[q]).max_abs())
        for q, other in enumerate(kinds):
            ac = anticommutator(lowering[p], raising[q])
            deviations[kind, other + "+"].append((ac - eye if p == q else ac).max_abs())
    return {family: max(values) for family, values in deviations.items()}


def hamiltonian(space: FockSpace) -> FockOperator:
    """H = sum_k hbar*w(k) (b'b - d d'); Hermitian but unbounded below."""
    return sum(((space.params.hbar * space.modes.omega(i))
                * (space.creation(ELECTRON, i) @ space.annihilation(ELECTRON, i)
                   - space.annihilation(POSITRON, i) @ space.creation(POSITRON, i))
                for i in range(space.n_modes)), space.zero())


def normal_ordered_hamiltonian(space: FockSpace) -> FockOperator:
    """H' = sum_k hbar*w(k) (b'b + d'd); non-negative.

    Normal ordering drops the constant sum_k hbar*w(k), the Kronecker-form
    counterpart of the discarded zero-momentum delta.
    """
    return sum(((space.params.hbar * space.modes.omega(i))
                * (space.number(ELECTRON, i) + space.number(POSITRON, i))
                for i in range(space.n_modes)), space.zero())


def occupation_spectrum(space: FockSpace) -> np.ndarray:
    """Energies of H' enumerated from occupation numbers, in basis order."""
    n = space.n_modes
    occupation = space.occupation[:, :n] + space.occupation[:, n:]  # per mode, both species
    # Accumulated mode by mode, as H' is; a matrix product reorders the sum
    # and moves the result by a few ulp.
    return space.params.hbar * sum(space.modes.omega(i) * occupation[:, i] for i in range(n))


def field_operator(space: FockSpace, r, t: float, time_derivative: bool = False):
    """Spinor components of the field operator at position r and time t.

    Psi(r, t) = sum_k (1/L) [b(k) u_N(k) + d'(k) v_N(k)] exp[i(k.r - w t)],
    the discrete-box field expansion with both terms sharing one phase.
    With time_derivative=True each mode term carries the extra factor -i*w.
    """
    x, y = r
    length = space.modes.box_side
    upper = []  # coefficients of b_0, d_0', b_1, d_1', ... (space._field_pattern)
    lower = []
    for i in range(space.n_modes):
        k = space.modes.momenta[i]
        w = space.modes.omega(i)
        phase = np.exp(1j * (k.kx * x + k.ky * y - w * t)) / length
        if time_derivative:
            phase *= -1j * w
        u = space.spinor(Branch.POSITIVE, i)
        v = space.spinor(Branch.NEGATIVE, i)
        upper += [phase * u[0], phase * v[0]]
        lower += [phase * u[1], phase * v[1]]
    indices, indptr, term, value = space._field_pattern
    components = []
    for coefficients in (upper, lower):
        # Copied, so that no result shares the pattern's index arrays.
        matrix = sparse.csr_matrix((np.asarray(coefficients)[term] * value, indices, indptr),
                                   shape=(space.dim, space.dim), copy=True)
        # Entries of a zero coefficient (v = 0 at k = 0) are dropped, as a
        # sum of CSR matrices drops them.
        matrix.eliminate_zeros()
        components.append(FockOperator(matrix, space))
    return tuple(components)


@dataclass
class FieldAnticommutatorReport:
    """Equal-time field anti-commutator reduced to its 2x2 c-number kernel."""

    kernel: np.ndarray            # measured {Psi_a(r), (Psibar sigma_3)_b(r')}
    mode_sum_kernel: np.ndarray   # sum_k (u u-bar + v v-bar) sigma_3 e^{ik(r-r')} / L^2
    max_scalar_deviation: float   # worst deviation of any anticommutator from c*I
    max_plain_deviation: float    # worst entry of {Psi_a, Psi_b} (must vanish)
    max_kernel_mismatch: float    # |kernel - mode_sum_kernel| entry-wise


def field_anticommutator(space: FockSpace, r, r_prime, t: float) -> FieldAnticommutatorReport:
    """Compute {Psi_a(r,t), (Psibar sigma_3)_b(r',t)} and reduce it to a kernel.

    Each operator anti-commutator is proportional to the identity on Fock
    space; the 2x2 matrix of proportionality constants is returned together
    with its independent mode-sum evaluation.  Note the k=0 kernel is
    sigma_3 / L^2, not the identity: the indefinite metric survives in the
    canonical structure.
    """
    psi_r = field_operator(space, r, t)
    psi_rp = field_operator(space, r_prime, t)
    # (Psibar sigma_3)_b = sum_g Psi_g' (sigma_3)_gb; sigma_3 is diagonal.
    bar_metric = (psi_rp[0].dagger(), -1.0 * psi_rp[1].dagger())

    kernel = np.zeros((2, 2), dtype=complex)
    max_scalar_dev = 0.0
    max_plain_dev = 0.0
    eye = space.identity()
    for a in range(2):
        for b in range(2):
            ac = anticommutator(psi_r[a], bar_metric[b])
            scalar = ac.trace() / space.dim
            kernel[a, b] = scalar
            max_scalar_dev = max(max_scalar_dev, (ac - scalar * eye).max_abs())
            max_plain_dev = max(max_plain_dev, anticommutator(psi_r[a], psi_rp[b]).max_abs())

    dx = r[0] - r_prime[0]
    dy = r[1] - r_prime[1]
    length = space.modes.box_side
    mode_sum = np.zeros((2, 2), dtype=complex)
    for i in range(space.n_modes):
        k = space.modes.momenta[i]
        u = space.spinor(Branch.POSITIVE, i)
        v = space.spinor(Branch.NEGATIVE, i)
        weight = np.exp(1j * (k.kx * dx + k.ky * dy)) / length**2
        mode_sum += weight * (np.outer(u, u.conj()) + np.outer(v, v.conj())) @ _SIGMA3

    return FieldAnticommutatorReport(
        kernel=kernel,
        mode_sum_kernel=mode_sum,
        max_scalar_deviation=max_scalar_dev,
        max_plain_deviation=max_plain_dev,
        max_kernel_mismatch=float(np.abs(kernel - mode_sum).max()),
    )


def hamiltonian_from_field(space: FockSpace) -> FockOperator:
    """Assemble H by integrating hbar * Psibar (i sigma_3) dPsi/dt over the box.

    Brute-force check that the field expansion and the orthonormalization
    reproduce the momentum-space Hamiltonian: the cross terms (b'd' and d b)
    cancel through the metric orthogonality of the two branches.  The grid
    resolves the largest integer wave-vector, so the discrete plane waves are
    orthogonal on it.
    """
    grid_n = 2 * max(max(abs(nx), abs(ny)) for nx, ny in space.modes.wave_vectors) + 2
    length = space.modes.box_side
    step = length / grid_n
    area = step * step
    hbar = space.params.hbar

    out = space.zero()
    for ix in range(grid_n):
        for iy in range(grid_n):
            r = (ix * step, iy * step)
            psi = field_operator(space, r, 0.0)
            psi_dot = field_operator(space, r, 0.0, time_derivative=True)
            integrand = (
                psi[0].dagger() @ (1j * psi_dot[0])
                - psi[1].dagger() @ (1j * psi_dot[1])
            )
            out = out + (hbar * area) * integrand
    return out


def pair_lowering(space: FockSpace, index: int) -> FockOperator:
    """P(k) = b(k) d(-k), the pair annihilation part of the pair operator."""
    partner = space.modes.partner_index(index)
    return space.annihilation(ELECTRON, index) @ space.annihilation(POSITRON, partner)


def pair_operator(space: FockSpace, index: int) -> FockOperator:
    """Hermitian hole-electron pair operator O = P(k) + P'(k).

    P'(k) = d'(-k) b'(k) creates an electron at k and a positron at -k.  The
    creation term must be the exact adjoint of the annihilation term; writing
    both factors in creation-first order would flip a fermionic sign and make
    the combination anti-Hermitian.
    """
    p = pair_lowering(space, index)
    return p + p.dagger()


def pair_number_operator(space: FockSpace, index: int, literal: bool = False) -> FockOperator:
    """Number of pairs coupling electron momentum k with positron momentum -k.

    The default is the positive-semidefinite product n_b(k) n_d(-k), which
    counts pairs on every pair-sector state and commutes with H'.  With
    literal=True the printed operator ordering b'd'bd is returned instead;
    under the anti-commutation relations it equals minus the default.
    """
    partner = space.modes.partner_index(index)
    if literal:
        return (
            space.creation(ELECTRON, index)
            @ space.creation(POSITRON, partner)
            @ space.annihilation(ELECTRON, index)
            @ space.annihilation(POSITRON, partner)
        )
    return space.number(ELECTRON, index) @ space.number(POSITRON, partner)


def total_pair_number(space: FockSpace) -> FockOperator:
    """Sum of the per-momentum pair counters over every mode."""
    return sum((pair_number_operator(space, i) for i in range(space.n_modes)), space.zero())


def charge_operator(space: FockSpace) -> FockOperator:
    """Q = sum_k (b'b - d'd), electron number minus positron number."""
    return sum((space.number(ELECTRON, i) - space.number(POSITRON, i)
                for i in range(space.n_modes)), space.zero())


def pair_commutator_check(space: FockSpace, index: int,
                          index_prime: int) -> tuple[float, float]:
    """Bosonic character of the pair operators, exact finite-mode form.

    For matched momenta the exact identity is
    [P(k), P'(k)] = I - n_b(k) - n_d(-k); its vacuum expectation is 1, the
    Kronecker-delta reading of the bosonic commutation relation.  For distinct
    momenta the commutator vanishes identically.  Returns the deviation of
    each statement: (operator deviation, vacuum-expectation deviation).
    """
    p = pair_lowering(space, index)
    p_prime = pair_lowering(space, index_prime)
    comm = commutator(p, p_prime.dagger())
    vac = space.vacuum()
    if index == index_prime:
        partner = space.modes.partner_index(index)
        exact = space.identity() - space.number(ELECTRON, index) - space.number(POSITRON, partner)
        return (comm - exact).max_abs(), abs(comm.expectation(vac) - 1.0)
    return comm.max_abs(), abs(comm.expectation(vac))
