"""Kernel machinery and Gram-matrix formulas for covariance-operator distances.

For datasets X (m points) and Y (n points) mapped into the RKHS of a kernel
K, the empirical covariance operators are C_X = (1/m) F(X) J_m F(X)* with
J_m the centering matrix.  Every distance between them reduces to finite
matrices built from the centered Gram blocks

    aa = (1/m) J_m K[X] J_m,   bb = (1/n) J_n K[Y] J_n,
    ab = (1/sqrt(mn)) J_m K[X, Y] J_n,

because nonzero eigenvalues transfer between an operator product and its
Gram-side counterpart; the cross block is taken in the eigenbases of aa
and bb.  Without a small feature map they come from the three kernel
matrices, each evaluated once and made a block in place: its row means
come off, then the column means of that, and one multiply scales it; no
J_m is formed.  aa and bb are then symmetric only to roundoff, and no copy
symmetrizes them: every route reads one triangle (eigh, the Cholesky
factorization) or the diagonal (the alpha = 1/2 trace).  The routes read only invariants of the
blocks under an orthogonal change of sample coordinates, so a finite
feature map of dimension D <= min(m, n)/2 (linear, polynomial kernels)
gives them, of order D, from the R factors of the centered, scaled
features F_c = Q R: R_x R_x', R_y R_y', R_x R_y'.  Either way the blocks
travel as the plain tuple (aa, bb, ab), checked finite once.  For the
regularized family (alpha != 0) C_X and C_Y become finite matrices on the
span of the centered features of both datasets: the eigenbasis of the
dataset of larger rank, and the remainders of the other's features off it,
from a Schur complement of order min(rank aa, rank bb), so the eigensolves
are of order m, n and that minimum.  C_X + gI is diagonal there, and the
family's cross term is formed in that frame.  The ridge adds exactly zero
off the span, and sample counts may differ.  The Wasserstein distance is
the alpha = 1/2 member, tr aa + tr bb - 2 |ab|_*, with no eigensolve.
The unregularized alpha = 1 member needs none either: its cross term
|aa^(1/2) ab bb^(1/2)|_* keeps its value when aa^(1/2) becomes any square
factor F of aa = F F', because F = aa^(1/2) U for an orthogonal U, which
the nuclear norm ignores.  The R factors are such factors; so, as the
centered aa and ab' annihilate the constant vector 1, is the Cholesky factor
of aa + c 1 1' for any c > 0.  Where that sum is not positive definite (say
a linear kernel on more samples than dimensions), alpha = 1 takes the
eigenbases, as every other alpha does.

Each distance takes a ridge gamma and compares C_X + gamma*I with
C_Y + gamma*I.  gamma = 0, the default, is the unregularized family, which
needs alpha >= 1/2; any other gamma must be positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .exceptions import DimensionError, DomainError
from .gaussian import _combine
from .linalg import AlphaParam, as_alpha, nuclear_norm, sym_eigh, trace_sqrt
from .linalg import _cholesky, _clamp_zero, _finite, _finite_real, _lapack_guard, _real_array
from .linalg import _require_strict
from .metrics import _optional_gamma, _trace_form


@dataclass(frozen=True)
class KernelSpec:
    """Positive definite kernel: linear, polynomial, or Gaussian RBF.

    The RBF convention is K(x, y) = exp(-|x - y|^2 / (2 sigma^2)).
    """

    kind: str
    degree: int = 1
    offset: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "poly", "rbf"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        for name in ("degree", "offset", "sigma"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise DomainError(f"kernel {name} must be finite and real, got {value!r}")
        if self.kind == "poly":
            if self.degree < 1 or int(self.degree) != self.degree:
                raise DomainError("polynomial degree must be an integer >= 1")
            if self.offset < 0:
                raise DomainError("polynomial offset must be >= 0")
            object.__setattr__(self, "degree", int(self.degree))
        if self.kind == "rbf" and self.sigma <= 0:
            raise DomainError("RBF bandwidth must be > 0")
        # the kernel divides by 2 sigma^2; the product, unlike **, reads inf on overflow
        if self.kind == "rbf" and not 0 < 2.0 * (self.sigma * self.sigma) < math.inf:
            raise DomainError(
                f"RBF bandwidth 2 sigma^2 must be a positive finite float, got sigma={self.sigma}"
            )

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def polynomial(cls, degree: int, offset: float = 0.0) -> "KernelSpec":
        return cls("poly", degree=degree, offset=offset)

    @classmethod
    def gaussian_rbf(cls, sigma: float) -> "KernelSpec":
        return cls("rbf", sigma=sigma)

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse 'linear', 'poly:d=2,c=1' or 'rbf:sigma=0.5'; unknown or repeated names raise."""
        text = text.strip()
        if text == "linear":
            return cls.linear()
        head, sep, tail = text.partition(":")
        names = {"poly": ("d", "c"), "rbf": ("sigma",)}.get(head)
        if names is None:
            raise DomainError(f"unknown kernel spec {text!r}")
        params = {}
        if sep:
            for item in tail.split(","):
                if not item:
                    continue
                key, eq, value = (part.strip() for part in item.partition("="))
                if not eq:
                    raise DomainError(f"malformed kernel parameter {item!r}")
                if key not in names or key in params:
                    what = "repeated" if key in params else "unknown"
                    raise DomainError(f"{what} {head} kernel parameter {key!r}")
                params[key] = value
        try:
            if head == "poly":
                return cls.polynomial(
                    degree=float(params.get("d", 2)), offset=float(params.get("c", 0.0))
                )
            return cls.gaussian_rbf(sigma=float(params.get("sigma", 1.0)))
        except ValueError as exc:
            raise DomainError(f"malformed kernel spec {text!r}: {exc}") from exc

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pointwise kernel matrix K[i, j] = K(x_i, y_j)."""
        if self.kind == "linear":
            return x @ y.T
        if self.kind == "poly":
            return (x @ y.T + self.offset) ** self.degree
        half = (np.sum(x**2, axis=1) / 2.0)[:, None] + np.sum(y**2, axis=1) / 2.0
        k = x @ y.T
        k -= half  # norms summed first: K[X] stays exactly symmetric
        np.minimum(k, 0.0, out=k)
        k /= self.sigma**2  # halving is exact: the bits of -|x - y|^2 / (2 sigma^2)
        return np.exp(k, out=k)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample matrix, one row per observation; at least two samples."""

    points: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "Dataset":
        a = np.atleast_2d(_real_array(arr, "dataset"))
        if a.ndim != 2:
            raise DimensionError(f"expected a 2-D sample matrix, got shape {a.shape}")
        _finite("dataset", a)
        if a.shape[0] < 2:
            raise DimensionError("dataset needs at least two samples")
        a = a.copy()
        a.setflags(write=False)
        return cls(a)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def rkhs_alpha_distance(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha, gamma: float = 0.0
) -> float:
    """Family distance between the covariance operators C_X + gamma*I and C_Y + gamma*I.

    gamma > 0 admits every alpha: the matrix family's closed form on the span
    of the features of both datasets, where C_X and C_Y are finite matrices;
    the ridge contributes exactly zero on the orthogonal complement.  |alpha|
    below the switch tolerance routes to the analytic log-limit (the
    Log-Hilbert-Schmidt distance of the regularized operators).  gamma = 0
    compares the operators themselves and needs alpha >= 1/2.  Any other
    gamma raises DomainError.  Sample counts may differ.
    """
    return _rkhs_terms(x, y, kernel, alpha, _optional_gamma(gamma))[1]


def _rkhs_terms(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha, gamma: float
) -> tuple[float, float]:
    """Mean discrepancy squared and d_cov; gamma is 0.0 (no ridge) or a checked ridge."""
    mdd, blocks, factors = _centered_blocks(x, y, kernel)
    return mdd, _covariance_distance(blocks, alpha, gamma, factors)


def _centered_blocks(
    x: Dataset, y: Dataset, kernel: KernelSpec
) -> tuple[float, tuple, tuple | None]:
    """Mean discrepancy squared, the blocks (aa, bb, ab), and the feature route's square factors
    (rx, ry), aa = rx rx' and bb = ry ry', or None; the one place their route is chosen.

    Feature dimension D with 0 < 2D <= min(m, n): from the R factors of each dataset's centered
    features over sqrt(m), the Gram blocks in other sample coordinates; else from the Grams,
    with no factors.  Both routes run under one np.errstate, so a block that overflows on
    either raises NonFiniteError naming the kernel, with no numpy warning first.
    """
    if x.dim != y.dim:
        raise DimensionError(f"sample dimensions differ: {x.dim} vs {y.dim}")
    with np.errstate(all="ignore"):
        if 0 < 2 * _feature_dim(kernel, x.dim) <= min(x.m, y.m):
            (mx, rx), (my, ry) = (_feature_factor(ds, kernel) for ds in (x, y))
            mdd, blocks = float(np.sum((mx - my) ** 2)), (rx @ rx.T, ry @ ry.T, rx @ ry.T)
            factors = (rx, ry)
        else:
            (mdd, blocks), factors = _gram_blocks(x, y, kernel), None
    _finite(f"{kernel} Gram blocks on these datasets", *blocks)
    return mdd, blocks, factors


def _gram_blocks(x: Dataset, y: Dataset, kernel: KernelSpec) -> tuple[float, tuple]:
    """Mean discrepancy squared and the centered blocks from K[X], K[Y], K[X, Y].

    The mean discrepancy is (1/m^2) 1'K[X]1 + (1/n^2) 1'K[Y]1 - (2/mn) 1'K[X,Y]1, clamped at
    zero; each block is J K J over its scale, in place: the row means come off, then the column
    means of that, then one multiply scales it.  aa and bb stay symmetric only to roundoff, which
    no consumer sees: eigh and the Cholesky factorization read one triangle, and the
    alpha = 1/2 route only the diagonal.  An overflow is left to the caller's np.errstate.
    """
    m, n = x.m, y.m
    kxx, kyy, kxy = (kernel.gram(a.points, b.points) for a, b in ((x, x), (y, y), (x, y)))
    mdd = (float(np.sum(kxx)) / m**2 + float(np.sum(kyy)) / n**2
           - 2.0 * float(np.sum(kxy)) / (m * n))
    for k, scale in ((kxx, m), (kyy, n), (kxy, math.sqrt(m * n))):
        k -= k.mean(axis=1, keepdims=True)
        k -= k.mean(axis=0)
        k *= 1.0 / scale
    return max(mdd, 0.0), (kxx, kyy, kxy)


def _feature_factor(ds: Dataset, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Feature mean and the R factor (D x D) of the centered features over sqrt(m)."""
    features = _features(ds.points, kernel)
    mean = features.mean(axis=0)
    centered = (features - mean) / math.sqrt(ds.m)
    with _lapack_guard(f"{kernel} centered features", centered):
        return mean, np.linalg.qr(centered, mode="r")


def _covariance_distance(blocks: tuple, alpha, gamma: float, factors: tuple | None = None) -> float:
    """The one route choice of the RKHS family, from one set of centered blocks.

    gamma 0.0 takes the operators themselves, which needs alpha >= 1/2;
    otherwise gamma is a ridge its caller checked positive.  Every route reads
    only invariants of the blocks under orthogonal changes of sample coordinates.
    ``factors`` (the feature route's R factors) serve only the unregularized alpha = 1.
    """
    al = as_alpha(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        if not gamma:
            if al.is_log_limit or al.value < 0.5:
                raise DomainError(f"unregularized family needs alpha >= 1/2, got {al.label()};"
                                  " smaller alphas and the log-limit need a positive gamma")
            return _unregularized_distance(blocks, al.value, factors)
        if al.is_log_limit:
            return _log_limit_distance(blocks, gamma)
        return _regularized_distance(blocks, al, gamma)


def _regularized_distance(blocks: tuple, al: AlphaParam, gamma: float) -> float:
    """Regularized family distance from the centered Gram blocks, alpha off the log-limit.

    One dataset, A, goes first: its centered features (over sqrt(m)) rotated
    by its eigenvectors are orthogonal with squared lengths wa, so over
    sqrt(wa) they are an orthonormal basis of their span, where
    C_A = diag(wa).  The other dataset's rotated features have coordinates
    C = diag(wa)^-1/2 M in it, and the Gram matrix of their remainders off
    that span is the Schur complement S = diag(wb) - C'C = E diag(s) E'.
    So F = [C; diag(sqrt(s)) E'] holds them in r = ra + r_perp dimensions,
    where C_B = F F' has spectrum wb.  One zero threshold cuts wa, wb and s.
    A is the dataset of larger rank, so r >= ra >= rb and S has order
    min(ra, rb); on a tie, the one of smaller largest eigenvalue, so the
    threshold, which the larger sets, cuts the larger one's remainders and
    not the smaller one's.  The rule reads the data, not the argument order.

    In the frame C_A + gI = diag(la), la = [wa, 0...] + g, and C_B + gI has
    spectrum lb = [wb, 0...] + g.  With F = V diag(sqrt(wb)),
    (C_B + gI)^2a = V diag(h) V' + f I, h = (wb + g)^2a - g^2a, f = g^2a,
    so the cross term is trace_sqrt(D V diag(h) V' D + f diag(la)^2a) with
    D = diag(la)^a.  F / sqrt(wb) is orthonormal only to roundoff of wb's
    largest, an error that f I keeps small where wb is; a complete frame
    (rb = r) has f = 0 and takes V as the Q factor of F, largest wb first.
    """
    wa, wb, m = _in_eigenbases(blocks)
    top = max(wa[-1], wb[-1])
    ka, kb = _clamp_zero(wa, top) > 0, _clamp_zero(wb, top) > 0
    wa, wb, m = wa[ka], wb[kb], m[ka][:, kb]
    ra, rb = wa.shape[0], wb.shape[0]
    if ra + rb == 0:
        return 0.0  # every centered feature vanishes, so C_X = C_Y = 0
    if rb > ra or (rb == ra and wb[-1] < wa[-1]):
        wa, wb, m = wb, wa, m.T
    c = m / np.sqrt(wa)[:, None]
    s, e = sym_eigh(np.diag(wb) - c.T @ c)
    keep = _clamp_zero(s, top) > 0
    frame = np.vstack([c, np.sqrt(s[keep])[:, None] * e[:, keep].T])
    r, a, a2 = frame.shape[0], al.value, 2.0 * al.value
    la, lb = (np.concatenate([w, np.zeros(r - w.shape[0])]) + gamma for w in (wa, wb))
    if a < 0:
        for lam in (la, lb):
            _require_strict(lam, f"power {a2}")
    g2a = np.power(gamma, a2)  # a float power would raise OverflowError
    if wb.shape[0] < r:
        v, h, f = frame / np.sqrt(wb), (wb + gamma) ** a2 - g2a, g2a
    else:
        with _lapack_guard("QR factorization", frame):
            v = np.linalg.qr(frame[:, ::-1])[0][:, ::-1]
        h, f = (wb + gamma) ** a2, 0.0
    dv = la[:, None] ** a * v
    cross = trace_sqrt((dv * h) @ dv.T + np.diag(la**a2 * f))
    return _trace_form(float(np.sum(la**a2)), float(np.sum(lb**a2)), cross, a)


def _log_limit_distance(blocks: tuple, gamma: float) -> float:
    """Log-limit distance |log(C_X + gI) - log(C_Y + gI)| via Gram matrices.

    The squared norms are sums of log(1 + l/g)^2 over the centered Gram
    spectra, and the cross term tr[log(I + C_X/g) log(I + C_Y/g)] transfers
    to tr[f(aa) ab f(bb) ab'] with f(l) = log(1 + l/g)/l on the range and 0
    on the clamped kernel; with M = Va' ab Vb it is sum_ij f(a_i) M_ij^2 f(b_j).
    """
    wa, wb, m = _in_eigenbases(blocks)
    norm_a, norm_b = (float(np.sum(np.log1p(w / gamma) ** 2)) for w in (wa, wb))
    fa, fb = (np.log1p(w / gamma) / np.where(w > 0.0, w, 1.0) for w in (wa, wb))
    cross = float(np.sum((fa[:, None] * m) * (m * fb)))  # M_ij^2 alone may overflow
    return _trace_form(norm_a, norm_b, cross, 1.0)


def _in_eigenbases(blocks: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped spectra of aa = Va diag(wa) Va' and bb = Vb diag(wb) Vb', and M = Va' ab Vb."""
    aa, bb, ab = blocks
    (wa, va), (wb, vb) = sym_eigh(aa), sym_eigh(bb)
    return _clamp_zero(wa), _clamp_zero(wb), va.T @ ab @ vb


def _unregularized_distance(blocks: tuple, alpha: float, factors: tuple | None = None) -> float:
    """(1/a) tr[aa^2a + bb^2a - 2 (ba aa^(2a-1) ab bb^(2a-1))^(1/2)]^(1/2), alpha >= 1/2.

    Spectral powers are restricted to the range, so aa^0 is the range
    projection (needed at alpha = 1/2); the clamped kernel stays 0 under
    every positive power.  At alpha = 1 square factors aa = fa fa', bb = fb fb'
    stand in for aa^(1/2) and bb^(1/2): each differs from it by an orthogonal
    factor, which the nuclear norm of the cross term ignores.  Blocks handed
    without ``factors`` come only from _gram_blocks and are centered, so
    _centered_factors derives them; where it cannot (a block of rank below
    its order less one), alpha = 1 takes the eigenbases like every other alpha.
    """
    if alpha == 0.5:
        # aa^0 and bb^0 are the range projections, and they leave ab unchanged
        # (its columns lie in range(aa), its rows in range(bb)): no eigensolve.
        term_a, term_b, cross = float(np.trace(blocks[0])), float(np.trace(blocks[1])), blocks[2]
    elif alpha == 1.0 and (factors := factors or _centered_factors(blocks)) is not None:
        # tr aa^2 and tr bb^2 as sums of squares, and fa' ab fb: no eigensolve
        (fa, fb), (aa, bb, ab) = factors, blocks
        term_a, term_b, cross = float(np.sum(aa * aa)), float(np.sum(bb * bb)), fa.T @ ab @ fb
    else:
        wa, wb, m = _in_eigenbases(blocks)
        term_a, term_b = (float(np.sum(w ** (2.0 * alpha))) for w in (wa, wb))
        # diag(wa)^(a-1/2) M diag(wb)^(a-1/2): 0**p = 0 keeps it on the range
        cross = wa[:, None] ** (alpha - 0.5) * m * wb ** (alpha - 0.5)
    # The cross matrix ba aa^(2a-1) ab bb^(2a-1) shares its spectrum with
    # T'T for T = aa^(a-1/2) ab bb^(a-1/2), so its square-root trace is the
    # nuclear norm of T, which the rotation into the eigenbases keeps;
    # singular values keep the rank-deficient spectrum exact where a general
    # eigensolve would scatter the zero eigenvalues.
    return _trace_form(term_a, term_b, nuclear_norm(cross), alpha)


def _centered_factors(blocks: tuple) -> tuple | None:
    """Square factors of the centered aa and bb, or None where either has rank < its order - 1.

    A centered aa annihilates the unit constant vector u, as ab' does, so the Cholesky factor F
    of aa + c uu' (c = tr aa / m: tr aa / m^2 on every entry) is aa^(1/2) + sqrt(c) uu' times an
    orthogonal factor, and |F' ab G|_* = |aa^(1/2) ab bb^(1/2)|_*.
    """
    factors = []
    for block in blocks[:2]:
        factors.append(_cholesky("shifted Gram block", block + np.trace(block) / block.size))
        if factors[-1] is None:
            return None
    return tuple(factors)


def rkhs_gaussian_distance(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha, gamma: float = 0.0
) -> float:
    """Family distance between the Gaussians N(mean_X, C_X) and N(mean_Y, C_Y) in the RKHS.

    sqrt(mean discrepancy squared + d_cov^2 / 4), with d_cov the
    rkhs_alpha_distance of the same alpha and gamma (so gamma = 0 needs
    alpha >= 1/2).  Sample counts may differ.
    """
    return _rkhs_gaussian_terms(x, y, kernel, alpha, _optional_gamma(gamma))[2]


def _rkhs_gaussian_terms(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha, gamma: float
) -> tuple[float, float, float]:
    """(mean embedding distance, d_cov, distance); gamma is 0.0 (no ridge) or a checked ridge."""
    mdd, d_cov = _rkhs_terms(x, y, kernel, alpha, gamma)
    return _combine(math.sqrt(mdd), d_cov)


def rkhs_wasserstein(x: Dataset, y: Dataset, kernel: KernelSpec) -> float:
    """L2-Wasserstein distance between the empirical RKHS Gaussians.

    The alpha = 1/2 member of the family, so sample counts may differ:

        d^2 = mean discrepancy squared
            + (1/m) tr(J K[X] J) + (1/n) tr(J K[Y] J)
            - (2/sqrt(mn)) tr[(J_n K[Y,X] J_m K[X,Y] J_n)^(1/2)].
    """
    return rkhs_gaussian_distance(x, y, kernel, 0.5)


def _feature_dim(kernel: KernelSpec, p: int) -> float:
    """Feature dimension on R^p: p, the multisets of d of p + 1 slots (p if c = 0), or inf (RBF)."""
    if kernel.kind == "linear":
        return p
    if kernel.kind == "poly":
        slots = p + 1 if kernel.offset > 0 else p
        return math.comb(slots + kernel.degree - 1, kernel.degree)
    return math.inf


def _monomials(slots: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted rows of the multisets of ``degree`` slots, and sqrt(d! / prod k_i!)
    for multiplicities k_i: the product over j of j / (j's place in its run of equal slots)."""
    table = np.array(list(combinations_with_replacement(range(slots), degree)), dtype=np.intp)
    run, coeff = np.ones(len(table)), np.ones(len(table))
    for j in range(1, degree):
        run = np.where(table[:, j] == table[:, j - 1], run + 1.0, 1.0)
        coeff *= (j + 1) / run
    return table, np.sqrt(coeff)


def _features(points: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Explicit feature map (m x D) of a linear or polynomial kernel, by d column products.

    With z = (sqrt(c), x) (z = x when c = 0), the multiset of slots (j_1, ..., j_d)
    of (x'y + c)^d maps to sqrt(d! / prod k_i!) z_j1 ... z_jd.  An overflow is left to the
    caller's np.errstate.
    """
    if kernel.kind == "linear":
        return points
    m = len(points)
    z = np.column_stack([np.full(m, math.sqrt(kernel.offset)), points]) if kernel.offset else points
    table, weight = _monomials(z.shape[1], kernel.degree)
    features = np.repeat(weight[None, :], m, axis=0)
    for column in table.T:
        features *= z[:, column]
    return features
