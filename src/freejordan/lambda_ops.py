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
(``line_log``), so P_n is final once line n is known.  The kernel takes
one line per degree (``add``): line n adds its log terms and completes
P_n.  A solver reads the residues of the z^n coefficient of lines
1..n-1 (``pending_residues``) before it adds line n.

The sum over j < n is taken on packed ints (Kronecker substitution;
Harvey, J. Symbolic Comput. 44, 2009).  Each completed side of P_k is
held once as the int sum_i c_i 2^(B i) of its coefficients c_i at
t^-k..t^k, exact for any width B.  A term c t^e of j L_j then adds
c P_{n-j} shifted by e + j digits, one C-level multiply, shift and add,
and the n + 1 digits of the sum at t^-n..t^0 are read back.  Each such
digit is a coefficient of the sum, at most sum_j |j L_j|_1 max|P_{n-j}|
in absolute value; signed digits below 2^(B-1) decode uniquely, so the
kernel widens B, and repacks every cached P_k, whenever that bound
reaches 2^(B-1).  Nothing is truncated and no float is taken.

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
from operator import mul

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

    Each ``add`` takes the line of the next degree n = 1..order and
    completes P_n.  ``_p`` and ``_m`` are the two split sides, each a
    ``_Side``; a line's log terms (``line_log``) go to both, and every step
    runs on each side apart: the sum over j < n on packed ints, then the
    j = n log terms and the exact division by n on the n + 1 ints at
    t^-n..t^0, mirrored onto t^1..t^n.
    """

    def __init__(self, order: int) -> None:
        self.order = order
        self._p = _Side(order)
        self._m = _Side(order)

    def add(self, an: GDim, bn: GDim) -> None:
        """Multiply line n, the factor of (a_n, b_n), into Phi for the next degree n; complete P_n."""
        n = len(self._p.coeffs)
        if an or bn:
            plog, mlog = self._p.log, self._m.log
            for j, e, p, m in line_log(an, bn, n, self.order):
                lp, lm = plog[j], mlog[j]
                lp[e] = lp.get(e, 0) + p
                lm[e] = lm.get(e, 0) + m
        self._p.complete(n)
        self._m.complete(n)

    def __getitem__(self, n: int) -> RLaurent:
        """The completed coefficient P_n."""
        return _sum(zip(range(-n, n + 1), self._p.coeffs[n], self._m.coeffs[n]))

    def sides(self, n: int) -> tuple[list[int], list[int]]:
        """The split sides (even + odd, even - odd) of the completed P_n at t^-n..t^n."""
        return list(self._p.coeffs[n]), list(self._m.coeffs[n])

    def residues(self, n: int) -> tuple[GDim, GDim]:
        """(L0, L2) of the completed coefficient P_n."""
        return _residues(self._p.coeffs[n], self._m.coeffs[n], n)

    def pending_residues(self) -> tuple[GDim, GDim]:
        """(L0, L2) of the next coefficient P_n as the lines added so far make it."""
        n = len(self._p.coeffs)
        lo = max(n - 2, 0)  # only t^-2..t^0 are read
        return _residues(self._p.digits(n, lo), self._m.digits(n, lo), n - lo)

    def series(self) -> TZSeries:
        """P_0..P_order, once all ``order`` lines are added."""
        return TZSeries(self.order, [self[n] for n in range(self.order + 1)])


class _Side:
    """One split side of Phi: its log and its completed coefficients.

    ``log[j]`` holds j L_j, t-exponent -> int, summed over the lines added
    so far.  ``coeffs[k]`` holds the completed P_k at t^-k..t^k: t^-k..t^0
    is computed, and t^1..t^k is its mirror image.  Each completed P_k is
    also held packed, ``packed[k] = sum_i coeffs[k][i] 2^(width i)``, with
    ``tops[k] = max |P_k|``.  L_j is final once P_j is completed; then
    ``complete`` has asserted that it is t-symmetric, so each mirror image
    is exact, and it is held as ``terms[j]``, one (j - e, j + e, c) per
    nonzero c t^e with e >= 0, and ``norms[j]``, the sum of its |c|.
    ``conv`` holds sum_{j<n} (j L_j) P_{n-j} at t^-n..t^0 until P_n is
    completed: it does not depend on line n.
    """

    def __init__(self, order: int) -> None:
        self.log: list[dict[int, int]] = [{} for _ in range(order + 1)]
        self.coeffs: list[list[int]] = [[1]]
        self.width = _WIDTH_STEP
        self.packed = [1]
        self.tops = [1]
        self.terms: list[list[tuple[int, int, int]]] = [[]]
        self.norms = [0]
        self.conv: list[int] | None = None

    def digits(self, n: int, lo: int) -> list[int]:
        """P_n = (sum_{j=1..n} (j L_j) P_{n-j}) / n at t^(lo-n)..t^0, exactly."""
        if self.conv is None:
            self.conv = self._convolve(n)
        conv, log = self.conv, self.log[n]  # j = n: P_0 = 1
        out = []
        for i in range(lo, n + 1):
            v = conv[i] + log.get(i - n, 0)
            q, r = divmod(v, n)
            if r:
                raise AssertionError(f"z^{n} coefficient of Phi is not integral: {v}/{n}")
            out.append(q)
        return out

    def complete(self, n: int) -> None:
        """Complete P_n from the lines added so far; L_n is final from here on."""
        log = self.log[n]
        for e, c in log.items():
            if log.get(-e, 0) != c:
                raise AssertionError(f"z^{n} log term of Phi at t^{e} is not t-symmetric")
        half = self.digits(n, 0)
        self.coeffs.append(half + half[-2::-1])
        self.packed.append(_pack(self.coeffs[n], self.width))
        self.tops.append(max(map(abs, half)))
        self.terms.append([(n - e, n + e, c) for e, c in log.items() if e >= 0 and c])
        self.norms.append(sum(map(abs, log.values())))
        self.conv = None

    def _convolve(self, n: int) -> list[int]:
        """sum_{j=1..n-1} (j L_j) P_{n-j} at t^-n..t^0, summed as one packed int.

        The term c t^e of j L_j adds c P_{n-j} from index e + j of t^-n..t^0
        on, so it adds c packed[n-j] shifted by e + j digits; the equal term
        at t^-e shares the product.  A term from index n + 1 on adds nothing
        below t^1.  Digit i of the sum is the t^(i-n) coefficient, at most
        sum_j norms[j] tops[n-j] in absolute value; before summing, the
        width is widened, and every packed P_k repacked, until that bound is
        below 2^(width-1), where ``_unpack`` reads each digit exactly.
        """
        bound = sum(map(mul, self.norms[1:n], self.tops[n - 1:0:-1]))
        if bound.bit_length() >= self.width:
            self.width = -(-(bound.bit_length() + 1) // _WIDTH_STEP) * _WIDTH_STEP
            self.packed = [_pack(c, self.width) for c in self.coeffs]
        width, packed = self.width, self.packed
        acc = 0
        for j in range(1, n):
            q = packed[n - j]
            for lo, hi, c in self.terms[j]:
                x = c * q
                acc += x << width * lo
                if lo < hi <= n:
                    acc += x << width * hi
        return _unpack(acc, width, n + 1)


# The packed digit width starts at, and grows by whole multiples of, 32 bits.
_WIDTH_STEP = 32


def _pack(coeffs: list[int], width: int) -> int:
    """sum_i coeffs[i] 2^(width i), exactly for any ints."""
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def _unpack(x: int, width: int, count: int) -> list[int]:
    """The digits d_0..d_{count-1} of x = sum_i d_i 2^(width i), each |d_i| < 2^(width-1).

    Adding 2^(width-1) to each of these digits makes it lie in [0, 2^width)
    without a carry, so it is read off by a shift and a mask; what x holds
    from digit count on is a multiple of 2^(width count) and changes none
    of them.
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    x += half * (((1 << width * count) - 1) // mask)  # half at digits 0..count-1
    return [(x >> width * i & mask) - half for i in range(count)]


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
    for an, bn in zip(a, b):
        phi.add(an, bn)
    return phi.series()


def lambda_adjoint_series(a: Sequence[GDim]) -> TZSeries:
    """Psi(a), lambda of a(z) tensor adjoint: Phi(a, -a)."""
    return phi_series(a, [-c for c in a])
