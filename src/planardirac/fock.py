"""Finite-mode second quantization of the planar Dirac field.

A ModeSet fixes M momentum points on a periodic box; each carries an electron
and a positron fermionic mode, so the state space has dimension 4^M.  Mode
operators are Jordan-Wigner encoded over a fixed ordering (electrons first,
positrons second), which makes every anti-commutation relation hold exactly:
operator entries are integers, so the checks below report literal zeros.

The continuum-to-box dictionary used throughout: momentum integrals become
mode sums, Dirac deltas become Kronecker deltas, and the field-expansion
normalization 1/(2pi) becomes 1/L.  Both terms of the field operator carry
the phase exp[+i(k.r - w t)]; with the indefinite-metric orthonormalization
of the plane-wave spinors this reproduces the quadratic Hamiltonian
sum_k hbar*w(k) (b'b - d d') exactly, which ``hamiltonian_from_field``
demonstrates by brute-force spatial integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy import sparse

from .algebra import anticommutator, commutator, pauli
from .planewave import (
    Branch,
    Momentum,
    PhysicalParams,
    dispersion_omega,
    normalize,
    build_u,
    build_v,
)
from .reporting import Check, bound_check

M_MAX = 6

ELECTRON = "electron"
POSITRON = "positron"

_SIGMA3 = pauli(3)


class CapacityError(ValueError):
    """Requested mode count exceeds the supported state-space size."""


@dataclass(frozen=True)
class ModeSet:
    """Ordered list of distinct momenta on a periodic box of side L."""

    momenta: tuple
    box_side: float
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        momenta = tuple(self.momenta)
        object.__setattr__(self, "momenta", momenta)
        if len(momenta) < 1:
            raise ValueError("ModeSet needs at least one momentum")
        if self.box_side <= 0:
            raise ValueError("box side must be positive")
        seen = set()
        for k in momenta:
            key = (k.kx, k.ky)
            if key in seen:
                raise ValueError(f"duplicate momentum {key} in ModeSet")
            seen.add(key)

    @classmethod
    def from_integers(cls, pairs, box_side: float, params: PhysicalParams = None):
        """Momenta k = 2*pi*n/L from integer pairs n = (nx, ny)."""
        params = params or PhysicalParams()
        unit = 2.0 * np.pi / box_side
        momenta = tuple(Momentum(unit * nx, unit * ny) for nx, ny in pairs)
        ms = cls(momenta, box_side, params)
        object.__setattr__(ms, "integer_modes", tuple((int(nx), int(ny)) for nx, ny in pairs))
        return ms

    def __len__(self):
        return len(self.momenta)

    def omega(self, i: int) -> float:
        return dispersion_omega(self.momenta[i], self.params)

    def partner_index(self, i: int) -> int:
        """Index of the momentum -k for mode i (k = 0 partners itself)."""
        target = self.momenta[i].negated()
        for j, k in enumerate(self.momenta):
            if k.kx == target.kx and k.ky == target.ky:
                return j
        raise ValueError(
            f"ModeSet has no partner momentum ({target.kx}, {target.ky}) for mode {i}"
        )


_DEFAULT_INTEGER_MODES = {
    1: [(0, 0)],
    2: [(1, 0), (-1, 0)],
    3: [(0, 0), (1, 0), (-1, 0)],
    4: [(1, 0), (-1, 0), (0, 1), (0, -1)],
    5: [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
    6: [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
}


def default_symmetric_modes(n_modes: int, box_side: float = 2.0 * np.pi,
                            params: PhysicalParams = None) -> ModeSet:
    """Momentum-symmetric ModeSet (every k paired with -k) of size n_modes."""
    if n_modes not in _DEFAULT_INTEGER_MODES:
        raise CapacityError(f"no default mode pattern for M={n_modes} (max {M_MAX})")
    return ModeSet.from_integers(_DEFAULT_INTEGER_MODES[n_modes], box_side, params)


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

    def __neg__(self):
        return FockOperator(-self.matrix, self.space)

    def __mul__(self, scalar):
        return FockOperator(self.matrix * scalar, self.space)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        return FockOperator(self.matrix @ other.matrix, self.space)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T.tocsr(), self.space)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

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
        return np.linalg.eigvalsh(self.to_dense())

    def hermiticity_defect(self) -> float:
        return (self - self.dagger()).max_abs()


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
_ZSTR = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _jordan_wigner_lowering(position: int, n_positions: int):
    """sigma_z**position (x) lower (x) identity**rest as a CSR matrix."""
    factors = [_ZSTR] * position + [_LOWER] + [_I2] * (n_positions - position - 1)
    return reduce(lambda a, b: sparse.kron(a, b, format="csr"),
                  [sparse.csr_matrix(f) for f in factors])


class FockSpace:
    """4^M-dimensional fermionic Fock space over a ModeSet.

    Jordan-Wigner chain positions: electron mode i sits at position i,
    positron mode i at position M + i.  Basis index bit significance follows
    chain order, position 0 most significant, so the vacuum is index 0.
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
        self._lowering = [
            _jordan_wigner_lowering(j, self.n_positions) for j in range(self.n_positions)
        ]

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
        return self.annihilation(species, index).dagger()

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
        index = 0
        for n in occ:
            index = (index << 1) | (1 if n else 0)
        return index

    def occupations(self, index: int):
        """(electron occupations, positron occupations) of a basis index."""
        bits = [(index >> (self.n_positions - 1 - j)) & 1 for j in range(self.n_positions)]
        return tuple(bits[: self.n_modes]), tuple(bits[self.n_modes:])

    def spinor(self, branch: Branch, index: int) -> np.ndarray:
        k = self.modes.momenta[index]
        raw = build_u(k, self.params) if branch is Branch.POSITIVE else build_v(k, self.params)
        return normalize(raw, branch)


def build_space(modes: ModeSet) -> FockSpace:
    """Fix mode ordering and fermionic sign convention for a ModeSet."""
    return FockSpace(modes)


def verify_ccr(space: FockSpace, tol: float = 1e-14) -> list[Check]:
    """Check every anti-commutator family of the mode operators.

    Same-species and cross-species anti-commutators of annihilators (and of
    creators) vanish; the mixed families {b, d'} and {d, b'} vanish; and
    {b(k), b'(k')} = {d(k), d'(k')} = delta_kk' * I in Kronecker form.  All
    matrices involved are integer-valued, so deviations are exactly zero.
    """
    n = space.n_modes
    b = [space.annihilation(ELECTRON, i) for i in range(n)]
    d = [space.annihilation(POSITRON, i) for i in range(n)]
    bd_ = [op.dagger() for op in b]
    dd_ = [op.dagger() for op in d]
    eye = space.identity()

    def worst(pairs):
        return max(dev for dev in pairs) if pairs else 0.0

    records = []

    def add(name, deviations):
        records.append(bound_check(name, worst(deviations), tol, dimension=space.dim))

    add("{b,b} = 0", [anticommutator(b[i], b[j]).max_abs() for i in range(n) for j in range(i, n)])
    add("{d,d} = 0", [anticommutator(d[i], d[j]).max_abs() for i in range(n) for j in range(i, n)])
    add("{b,d} = 0", [anticommutator(b[i], d[j]).max_abs() for i in range(n) for j in range(n)])
    add("{b+,b+} = 0", [anticommutator(bd_[i], bd_[j]).max_abs() for i in range(n) for j in range(i, n)])
    add("{d+,d+} = 0", [anticommutator(dd_[i], dd_[j]).max_abs() for i in range(n) for j in range(i, n)])
    add("{b+,d+} = 0", [anticommutator(bd_[i], dd_[j]).max_abs() for i in range(n) for j in range(n)])
    add("{b,d+} = 0", [anticommutator(b[i], dd_[j]).max_abs() for i in range(n) for j in range(n)])
    add("{d,b+} = 0", [anticommutator(d[i], bd_[j]).max_abs() for i in range(n) for j in range(n)])
    add("{b,b+} = delta", [
        (anticommutator(b[i], bd_[j]) - (eye if i == j else space.zero())).max_abs()
        for i in range(n) for j in range(n)
    ])
    add("{d,d+} = delta", [
        (anticommutator(d[i], dd_[j]) - (eye if i == j else space.zero())).max_abs()
        for i in range(n) for j in range(n)
    ])
    return records


def hamiltonian(space: FockSpace) -> FockOperator:
    """H = sum_k hbar*w(k) (b'b - d d'); Hermitian but unbounded below."""
    hbar = space.params.hbar
    out = space.zero()
    for i in range(space.n_modes):
        b = space.annihilation(ELECTRON, i)
        d = space.annihilation(POSITRON, i)
        out = out + (hbar * space.modes.omega(i)) * (b.dagger() @ b - d @ d.dagger())
    return out


def normal_ordered_hamiltonian(space: FockSpace) -> FockOperator:
    """H' = sum_k hbar*w(k) (b'b + d'd); non-negative.

    Normal ordering drops the constant sum_k hbar*w(k), the Kronecker-form
    counterpart of the discarded zero-momentum delta.
    """
    hbar = space.params.hbar
    out = space.zero()
    for i in range(space.n_modes):
        out = out + (hbar * space.modes.omega(i)) * (
            space.number(ELECTRON, i) + space.number(POSITRON, i)
        )
    return out


def occupation_spectrum(space: FockSpace) -> np.ndarray:
    """Energies of H' enumerated from occupation numbers, in basis order."""
    n = space.n_modes
    shifts = space.n_positions - 1 - np.arange(space.n_positions)
    bits = (np.arange(space.dim)[:, None] >> shifts) & 1
    occupation = bits[:, :n] + bits[:, n:]  # electrons plus positrons, per mode
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
    upper = space.zero()
    lower = space.zero()
    for i in range(space.n_modes):
        k = space.modes.momenta[i]
        w = space.modes.omega(i)
        phase = np.exp(1j * (k.kx * x + k.ky * y - w * t)) / length
        if time_derivative:
            phase *= -1j * w
        u = space.spinor(Branch.POSITIVE, i)
        v = space.spinor(Branch.NEGATIVE, i)
        b = space.annihilation(ELECTRON, i)
        d_dag = space.creation(POSITRON, i)
        upper = upper + (phase * u[0]) * b + (phase * v[0]) * d_dag
        lower = lower + (phase * u[1]) * b + (phase * v[1]) * d_dag
    return upper, lower


@dataclass
class FieldAnticommutatorReport:
    """Equal-time field anti-commutator reduced to its 2x2 c-number kernel."""

    kernel: np.ndarray            # measured {Psi_a(r), (Psibar sigma_3)_b(r')}
    mode_sum_kernel: np.ndarray   # sum_k (u u-bar + v v-bar) sigma_3 e^{ik(r-r')} / L^2
    max_scalar_deviation: float   # worst deviation of any anticommutator from c*I
    max_plain_deviation: float    # worst entry of {Psi_a, Psi_b} (must vanish)
    max_kernel_mismatch: float    # |kernel - mode_sum_kernel| entry-wise

    def to_records(self, dimension: int, tol: float = 1e-13) -> list[Check]:
        return [
            bound_check("{Psi,Psibar*metric} proportional to identity",
                        self.max_scalar_deviation, tol, dimension=dimension),
            bound_check("{Psi,Psi} = 0", self.max_plain_deviation, tol, dimension=dimension),
            bound_check("kernel matches mode sum", self.max_kernel_mismatch, tol,
                        dimension=dimension),
        ]


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
    cancel through the metric orthogonality of the two branches.  Requires an
    integer-commensurate ModeSet so the discrete plane waves are orthogonal on
    the grid.
    """
    integer_modes = getattr(space.modes, "integer_modes", None)
    if integer_modes is None:
        raise ValueError("hamiltonian_from_field needs a ModeSet built from integers")
    grid_n = 2 * max(max(abs(nx), abs(ny)) for nx, ny in integer_modes) + 2
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
    out = space.zero()
    for i in range(space.n_modes):
        out = out + pair_number_operator(space, i)
    return out


def charge_operator(space: FockSpace) -> FockOperator:
    """Q = sum_k (b'b - d'd), electron number minus positron number."""
    out = space.zero()
    for i in range(space.n_modes):
        out = out + space.number(ELECTRON, i) - space.number(POSITRON, i)
    return out


def pair_commutator_check(space: FockSpace, index: int, index_prime: int,
                          tol: float = 1e-14) -> list[Check]:
    """Bosonic character of the pair operators, exact finite-mode form.

    For matched momenta the exact identity is
    [P(k), P'(k)] = I - n_b(k) - n_d(-k); its vacuum expectation is 1, the
    Kronecker-delta reading of the bosonic commutation relation.  For distinct
    momenta the commutator vanishes identically.
    """
    p = pair_lowering(space, index)
    p_prime = pair_lowering(space, index_prime)
    comm = commutator(p, p_prime.dagger())
    vac = space.vacuum()
    records = []
    if index == index_prime:
        partner = space.modes.partner_index(index)
        exact = space.identity() - space.number(ELECTRON, index) - space.number(POSITRON, partner)
        records.append(bound_check(
            "[P,P+] = I - n_b - n_d (exact identity)",
            (comm - exact).max_abs(), tol, dimension=space.dim))
        records.append(bound_check(
            "<vac|[P,P+]|vac> = 1",
            abs(comm.expectation(vac) - 1.0), tol, dimension=space.dim))
    else:
        records.append(bound_check(
            "[P(k),P+(k')] = 0 for k != k'", comm.max_abs(), tol, dimension=space.dim))
        records.append(bound_check(
            "<vac|[P(k),P+(k')]|vac> = 0",
            abs(comm.expectation(vac)), tol, dimension=space.dim))
    return records
