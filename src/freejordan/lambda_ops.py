"""The super lambda-operation as one exact plethystic exponential.

Every character product the solvers take is

    Phi(a, b) = lambda(a(z) [adjoint] + (a + b)(z)),

the super lambda-operation of the graded sl2-module whose character is
A = sum_{n>=1} A_n z^n, A_n = a_n (t^-1 + 1 + t) + b_n.  The adjoint
character product is Psi(a) = Phi(a, -a), and the plain lambda-operation
is lambda(c) = Phi(0, c).  lambda of one even vector u = c t^e z^n is
1 - u and of one odd one 1/(1 + x u), so

    Phi = exp(-sum_{k>=1} psi^k(A) / k),

where the Adams operation psi^k sends t -> t^k and z -> z^k, and on
R = Z[x]/(x^2 - 1) fixes x for odd k and sends x -> -1 for even k
(-log(1 + x u) = -sum_k (-1)^(k+1) x^k u^k / k).  In the split coordinates
(p, m) = (e + o, e - o) of R (``rings.RLaurent``) psi^k keeps (p, m) for
odd k and makes it (m, m) for even k.  So the log L of Phi has

    j L_j = -sum_{n | j} n psi^{j/n}(A_n),

and Phi = P solves z P' = (z L') P:

    P_0 = 1,    n P_n = sum_{j=1..n} (j L_j) P_{n-j}.

``PhiKernel`` runs this recurrence in ints, on the two split sides apart,
one z-degree at a time.  Every division by n is exact, because P has
integer coefficients; a remainder raises ``AssertionError`` and is never
truncated.  P is an sl2 character, symmetric under t -> 1/t (Kashuba--
Mathieu): psi^k(A_n) puts equal terms at t^k and t^-k, so each L_j is
symmetric, and then each P_n, by induction on n.  So the kernel computes
P_n only at t^-n..t^0 and mirrors that half onto t^1..t^n.  Line n, the
contribution of (a_n, b_n), enters only the log terms at z^{kn}
(``line_log``), so a solver reads the residues of the z^n coefficient of
lines 1..n-1 (``pending_residues``), adds line n, and then completes P_n
(``advance``) through the same recurrence.

A dimension series a(z) = sum_{n>=1} a_n z^n is passed as the tuple
(a_1, ..., a_N) of its GDim coefficients; it has no constant term, and its
length N is the truncation order of the product.  Every product is a
``TZSeries``, the package's one series type.

The solvers read these products through L0(c) = c_0 - c_{-1} =
Res_{t=0} (t^-1 - 1) c dt and L2(c) = c_{-1} - c_{-2} = Res_{t=0} (1 - t) c dt
(``rings``), the multiplicities of the trivial and adjoint sl2 isotypes.
Both lie in the computed half, so the kernel reads them off its int sides
(``residues``, ``pending_residues``) without building a coefficient.
"""

from __future__ import annotations

from collections.abc import Sequence

from .rings import GDim, RLaurent, TZSeries, _gdim, _sum


def line_log(an: GDim, bn: GDim, n: int, order: int) -> list[tuple[int, int, int, int]]:
    """Line n's log terms: (j, e, p, m) adds (p, m) t^e to j L_j, j = kn <= order.

    -n psi^k(A_n) has a_n's split coordinates at t^{+-k} and those of
    a_n + b_n at t^0, each taken through psi^k and scaled by -n.
    """
    s = an + bn
    ap, am = an.even + an.odd, an.even - an.odd
    sp, sm = s.even + s.odd, s.even - s.odd
    out = []
    for k in range(1, order // n + 1):
        pa, ps = (ap, sp) if k & 1 else (am, sm)
        j = k * n
        out += [(j, 0, -n * ps, -n * sm), (j, k, -n * pa, -n * am), (j, -k, -n * pa, -n * am)]
    return out


class PhiKernel:
    """Phi mod z^(order+1), built one z-degree at a time from its log.

    ``_p[n]`` and ``_m[n]`` hold the two split sides of the completed
    coefficient P_n, at t^-n..t^n: t^-n..t^0 is computed, and t^1..t^n is
    its mirror image.  ``_log[j]`` holds j L_j on both sides, t-exponent ->
    int, summed over the lines added so far; it is final once P_j is
    completed, and ``_next`` asserts then that it is t-symmetric, so each
    mirror image is exact.
    """

    def __init__(self, order: int) -> None:
        self.order = order
        self._log: list[tuple[dict[int, int], dict[int, int]]] = [({}, {}) for _ in range(order + 1)]
        self._p: list[list[int]] = [[1]]
        self._m: list[list[int]] = [[1]]
        self._conv: tuple[list[int], list[int]] | None = None  # sum_{j<n} (j L_j) P_{n-j}

    def add_line(self, an: GDim, bn: GDim, n: int) -> None:
        """Multiply line n, the factor of (a_n, b_n), into Phi."""
        if n < len(self._p):
            raise ValueError(f"line {n} would change the completed z^{n} coefficient")
        for j, e, p, m in line_log(an, bn, n, self.order):
            lp, lm = self._log[j]
            lp[e] = lp.get(e, 0) + p
            lm[e] = lm.get(e, 0) + m

    def __getitem__(self, n: int) -> RLaurent:
        """The completed coefficient P_n."""
        return _sum(zip(range(-n, n + 1), self._p[n], self._m[n]))

    def residues(self, n: int) -> tuple[GDim, GDim]:
        """(L0, L2) of the completed coefficient P_n."""
        return _residues(self._p[n], self._m[n], n)

    def pending_residues(self) -> tuple[GDim, GDim]:
        """(L0, L2) of the next coefficient P_n as the lines added so far make it."""
        return _residues(*self._next(), len(self._p))

    def advance(self) -> None:
        """Complete the next coefficient P_n from the lines added so far."""
        p, m = self._next()
        self._p.append(p + p[-2::-1])
        self._m.append(m + m[-2::-1])
        self._conv = None

    def series(self) -> TZSeries:
        """P_0..P_order; what is not completed yet is completed from the lines added so far."""
        while len(self._p) <= self.order:
            self.advance()
        return TZSeries(self.order, [self[n] for n in range(self.order + 1)])

    def _next(self) -> tuple[list[int], list[int]]:
        """Both sides of P_n = (sum_{j=1..n} (j L_j) P_{n-j}) / n at t^-n..t^0, exactly."""
        n = len(self._p)
        if self._conv is None:
            self._conv = (self._convolve(0, self._p, n), self._convolve(1, self._m, n))
        out = []
        for conv, log in zip(self._conv, self._log[n]):
            acc = conv[:]
            for e, c in log.items():  # j = n: P_0 = 1
                if log.get(-e, 0) != c:
                    raise AssertionError(f"z^{n} log term of Phi at t^{e} is not t-symmetric")
                if e <= 0:
                    acc[n + e] += c
            side = []
            for v in acc:
                q, r = divmod(v, n)
                if r:
                    raise AssertionError(f"z^{n} coefficient of Phi is not integral: {v}/{n}")
                side.append(q)
            out.append(side)
        return out[0], out[1]

    def _convolve(self, side: int, coeffs: list[list[int]], n: int) -> list[int]:
        """sum_{j=1..n-1} (j L_j) P_{n-j} on one side, at t^-n..t^0."""
        acc = [0] * (n + 1)
        for j in range(1, n):
            q = coeffs[n - j]  # t^-(n-j)..t^(n-j)
            w = len(q)
            for e, c in self._log[j][side].items():
                lo = e + j  # the index of t^(e - (n - j)) in acc
                if c and lo <= n:  # the slice stops at t^0
                    acc[lo:lo + w] = [x + c * v for x, v in zip(acc[lo:lo + w], q)]
        return acc


def _residues(p: list[int], m: list[int], n: int) -> tuple[GDim, GDim]:
    """(L0, L2) of the coefficient whose split sides hold t^0 at index n.

    L0 = c_0 - c_{-1} and L2 = c_{-1} - c_{-2}, side by side; an index
    below 0 holds 0.
    """
    lo = max(n - 2, 0)
    p2, p1, p0 = ([0, 0] + p[lo:n + 1])[-3:]
    m2, m1, m0 = ([0, 0] + m[lo:n + 1])[-3:]
    return _gdim(p0 - p1, m0 - m1), _gdim(p1 - p2, m1 - m2)


def phi_series(a: Sequence[GDim], b: Sequence[GDim]) -> TZSeries:
    """lambda of a(z) tensor adjoint plus b(z), through ``PhiKernel``.

    ``a`` and ``b`` hold the coefficients of z^1..z^N; the product is
    truncated at that N.
    """
    if len(a) != len(b):
        raise ValueError(f"mismatched truncation orders {len(a)} != {len(b)}")
    phi = PhiKernel(len(a))
    for n, (an, bn) in enumerate(zip(a, b), start=1):
        if an or bn:
            phi.add_line(an, bn, n)
    return phi.series()


def lambda_adjoint_series(a: Sequence[GDim]) -> TZSeries:
    """Psi(a), lambda of a(z) tensor adjoint: Phi(a, -a)."""
    return phi_series(a, [-c for c in a])
