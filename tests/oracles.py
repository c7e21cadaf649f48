"""Independent reference implementations used to pin expected test values.

Everything here is written in the most literal way available -- explicit
loops, nested sums, dense block assembly -- and, except for
:func:`oracle_classify` and :func:`oracle_matches`, imports nothing from the
package under test (:func:`oracle_verify_pair` calls the pair it is given,
point by point, and :func:`oracle_simplify` the refit and match steps of
the function it is given).  The ``literal_*`` functions are the synthesis
kernels as they were written before they were rewritten with fewer numpy
calls, kept to pin the rewritten ones to their bytes.
Tests compare the optimized library code against these second opinions,
and several hand-derived constants below are frozen into the test modules.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


def oracle_pinv(a, rtol=1e-12):
    """Moore-Penrose inverse assembled rank-by-rank from the SVD."""
    a = np.asarray(a, dtype=complex)
    u, sig, vh = np.linalg.svd(a)
    cut = rtol * (sig[0] if sig.size else 0.0)
    plus = np.zeros((a.shape[1], a.shape[0]), dtype=complex)
    for k in range(sig.size):
        if sig[k] > cut:
            plus += (1.0 / sig[k]) * np.outer(vh[k].conj(), u[:, k].conj())
    return plus


def oracle_reciprocal(seq, rtol=1e-12):
    """Reciprocal sequence by the literal recursion.

    r_0 = s_0^+ and r_j = -s_0^+ * sum_{l=0}^{j-1} s_{j-l} r_l.
    """
    seq = [np.asarray(s, dtype=complex) for s in seq]
    s0p = oracle_pinv(seq[0], rtol)
    out = [s0p]
    for j in range(1, len(seq)):
        acc = np.zeros_like(s0p @ seq[0])
        for l in range(j):
            acc = acc + seq[j - l] @ out[l]
        out.append(-s0p @ acc)
    return out


def oracle_alpha_shift(alpha, seq):
    """Shifted sequence: entry j is -alpha*s_{j-1} + s_j with s_{-1} = 0."""
    seq = [np.asarray(s, dtype=complex) for s in seq]
    out = []
    prev = np.zeros_like(seq[0])
    for s in seq:
        out.append(-alpha * prev + s)
        prev = s
    return out


def oracle_first_transform(alpha, seq, rtol=1e-12):
    """One algorithm step: -s_0 * r_{j+1} * s_0 with r the reciprocal of
    the shifted sequence."""
    seq = [np.asarray(s, dtype=complex) for s in seq]
    rec = oracle_reciprocal(oracle_alpha_shift(alpha, seq), rtol)
    s0 = seq[0]
    return [-s0 @ rec[j + 1] @ s0 for j in range(len(seq) - 1)]


def _checked_stack(mats):
    out = np.asarray(mats, dtype=complex)
    if out.ndim != 3 or not np.all(np.isfinite(out)):
        raise ValueError("expected finite matrices of one shape")
    return out


def checked_reciprocal(mats, rtol=1e-12):
    """The stacked reciprocal with its own argument check, literally the
    package's arithmetic (numpy's pinv for the package's, the same bits)."""
    if len(mats) == 0:
        raise ValueError("reciprocal of an empty sequence")
    mats = _checked_stack(mats)
    out = np.empty_like(mats)
    out[0] = np.linalg.pinv(mats[0], rtol=rtol)
    neg = -out[0]
    for j in range(1, len(mats)):
        out[j] = neg @ sum(mats[j:0:-1] @ out[:j])
    return out


def checked_alpha_shift(alpha, mats):
    """The stacked shift with its own argument check."""
    mats = _checked_stack(mats)
    return -alpha * np.concatenate((np.zeros_like(mats[:1]), mats[:-1])) + mats


def checked_step(alpha, s, rtol=1e-12, psd=1e-9):
    """One algorithm step on a stack whose shift and reciprocal each check
    their argument again, literally the package's arithmetic (numpy's norm
    for the package's Frobenius norm, the same bits); returns the next
    stage and the pseudoinverse of ``s[0]``."""
    rec = checked_reciprocal(checked_alpha_shift(alpha, s), rtol)
    out = -s[0] @ rec[1:] @ s[0]
    out = 0.5 * (out + out.conj().transpose(0, 2, 1))
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries")
    if np.linalg.norm(out[0]) <= psd * np.linalg.norm(s[0]):
        out = np.zeros_like(out)
    return out, rec[0]


def oracle_checked_trace(alpha, s, rtol=1e-12, psd=1e-9):
    """Every stage (as a stack) and every step's pseudoinverse of the
    stage's first entry, by :func:`checked_step`."""
    stages = [np.array(s, dtype=complex)]
    pinvs = []
    for _ in range(len(s) - 1):
        out, r0 = checked_step(alpha, stages[-1], rtol, psd)
        stages.append(out)
        pinvs.append(r0)
    return stages, pinvs


def oracle_trace_exact(alpha, s):
    """Every stage of the q = 1 algorithm in exact rational arithmetic.

    ``alpha`` and the scalars ``s`` are converted to ``Fraction``.  Each
    step forms the reciprocal r of the shifted sequence u_j = -alpha*s_{j-1}
    + s_j (r_0 = 1/u_0, or 0 when u_0 = 0, the scalar pseudoinverse) and
    maps s to -s_0 * r_{j+1} * s_0 for j = 0..len(s)-2.  Stage k holds
    m-k+1 entries; the diagonal is the first entry of each stage.
    """
    alpha = Fraction(alpha)
    stages = [[Fraction(x) for x in s]]
    while len(stages[-1]) > 1:
        cur = stages[-1]
        u = [cur[0]] + [cur[j] - alpha * cur[j - 1] for j in range(1, len(cur))]
        r = [1 / u[0] if u[0] else Fraction(0)]
        for j in range(1, len(u)):
            r.append(-r[0] * sum(u[j - l] * r[l] for l in range(j)))
        stages.append([-cur[0] * r[j + 1] * cur[0]
                       for j in range(len(cur) - 1)])
    return stages


def oracle_inverse_transform(alpha, a, t, n, rtol=1e-12):
    """Literal nested-sum form of the inverse algorithm step.

    Returns the first n+1 entries r_0..r_n of the reconstruction seeded
    with ``a``:

        r_0 = a
        r_j = alpha^j a
              + sum_{l=1}^{j} alpha^(j-l) a a^+ [ sum_{k=0}^{l-1}
                    t_{l-1-k} a^+ (shift r)_k ]

    where (shift r)_k = -alpha*r_{k-1} + r_k (and (shift r)_0 = r_0).
    """
    a = np.asarray(a, dtype=complex)
    t = [np.asarray(x, dtype=complex) for x in t]
    ap = oracle_pinv(a, rtol)
    out = [a.copy()]
    for j in range(1, n + 1):
        total = (alpha ** j) * a
        for l in range(1, j + 1):
            inner = np.zeros_like(a)
            for k in range(l):
                if k == 0:
                    shifted = out[0]
                else:
                    shifted = -alpha * out[k - 1] + out[k]
                inner = inner + t[l - 1 - k] @ ap @ shifted
            total = total + (alpha ** (j - l)) * (a @ ap @ inner)
        out.append(total)
    return out


def checked_inverse(alpha, t, a, ap):
    """The inverse step's loop with one sum of products per entry, literally
    the package's arithmetic before its sums were accumulated: entries
    r_0..r_{m+1} from the seed ``a`` (Hermitian) and its pseudoinverse
    ``ap``."""
    proj = a @ ap
    out = [a]
    shifted = [a]
    for j in range(1, len(t) + 1):
        acc = sum(t[j - 1 - k] @ ap @ shifted[k] for k in range(j))
        nxt = alpha * out[-1] + proj @ acc
        nxt = 0.5 * (nxt + nxt.conj().T)
        shifted.append(-alpha * out[-1] + nxt)
        out.append(nxt)
    return out


def oracle_block_hankel(seq, n):
    """Dense (n+1)x(n+1) block Hankel matrix with block (j,k) = s_{j+k}."""
    seq = [np.asarray(s, dtype=complex) for s in seq]
    q = seq[0].shape[0]
    h = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            h[j * q:(j + 1) * q, k * q:(k + 1) * q] = seq[j + k]
    return h


def oracle_schur_complement(seq, n, rtol=1e-12):
    """L_n = s_{2n} - [s_n .. s_{2n-1}] H_{n-1}^+ [s_n ; .. ; s_{2n-1}]."""
    seq = [np.asarray(s, dtype=complex) for s in seq]
    if n == 0:
        return seq[0].copy()
    z = np.hstack([seq[j] for j in range(n, 2 * n)])
    y = np.vstack([seq[j] for j in range(n, 2 * n)])
    return seq[2 * n] - z @ oracle_pinv(oracle_block_hankel(seq, n - 1), rtol) @ y


def oracle_classify(seq, tol=None):
    """The classifier as a recursion over whole block-Hankel stacks.

    Every level rebuilds the stack and the full parametrization of its
    sequence and recomputes each verdict from them, then recurses through
    one algorithm step.  Q_m is the top block-Hankel Schur complement of
    each level, a second route beside the library's, which reads it off
    the algorithm's diagonal.  The library tests the levels after stage 0
    differently, reading each Q_k's margin and each stage's dominance off
    the trace in stacked calls in place of each stage's cone test, so this
    checks that rule against the stagewise one.  It uses the package's
    block-Hankel layer (``build_stack``, ``stieltjes_parametrization``),
    ``first_transform`` and the matcore predicates, which it does not
    check.  Its dominance test takes both range and null containment.
    """
    from stieltjesmp import matcore
    from stieltjesmp.hankel import (
        ClassReport,
        build_stack,
        stieltjes_parametrization,
    )
    from stieltjesmp.schur import first_transform

    tol = matcore.DEFAULT_TOL if tol is None else tol

    def cone(s):
        stack = build_stack(s, tol)
        tops = [stack.H[s.m // 2]]
        if s.m >= 1:
            tops.append(stack.Halpha[(s.m - 1) // 2])
        lo = min(matcore.psd_margin(t) for t in tops)
        return stack, lo >= -tol.psd, lo > tol.psd, abs(lo) < 10.0 * tol.psd

    def dominated(s):
        return all(matcore.range_contains(s.s[0], x, tol)
                   and matcore.null_contains(s.s[0], x, tol) for x in s.s[1:])

    def top(s):
        # symmetrized, not checked: like the library's algorithm outputs,
        # this Schur complement is computed, and its asymmetry is rounding
        q_top = stieltjes_parametrization(s, tol)[-1]
        q_top = 0.5 * (q_top + q_top.conj().T)
        cut = tol.psd * max(1.0, max(matcore.frob(x) for x in s.s))
        return np.where(np.abs(q_top) <= cut, 0.0, q_top)

    def candidate(s):
        _, psd, pd, borderline = cone(s)
        if not psd:
            return "unknown" if borderline else "no"
        if pd and not borderline:
            return "yes"
        if not np.any(top(s)):
            return "yes"
        if s.m == 0:
            return "yes"
        if not dominated(s):
            return "no"
        return candidate(first_transform(s, tol))

    stack, psd, pd, _ = cone(seq)
    hankel_psd = matcore.is_psd(stack.H[seq.m // 2], tol)
    dominant = dominated(seq)
    q_top = top(seq)
    return ClassReport(
        q=seq.q,
        m=seq.m,
        hankel_psd=hankel_psd,
        stieltjes_psd=psd,
        stieltjes_pd=pd,
        first_term_dominant=dominant,
        completely_degenerate=not np.any(q_top),
        extendable_candidate=candidate(seq),
        rank_top=matcore.rank_with_tol(q_top, tol),
    )


def oracle_moments(alpha, nodes, weights, m):
    """Power moments of a finite atomic measure by direct summation."""
    weights = [np.asarray(w, dtype=complex) for w in weights]
    out = []
    for j in range(m + 1):
        acc = np.zeros_like(weights[0]) if weights else None
        for x, w in zip(nodes, weights):
            acc = acc + (x ** j) * w
        out.append(acc)
    return out


def oracle_stieltjes_value(nodes, weights, z):
    """Pointwise Cauchy-kernel sum: sum_k w_k / (x_k - z)."""
    weights = [np.asarray(w, dtype=complex) for w in weights]
    acc = np.zeros_like(weights[0])
    for x, w in zip(nodes, weights):
        acc = acc + w / (x - z)
    return acc


def oracle_block_gauss(seq):
    """(nodes, weights) of the block Gauss rule of the moments ``seq``,
    s_0..s_{2n-1}: n block nodes, exact for those moments.

    Computed from the Hankel matrices alone (Golub and Welsch): the
    Cholesky factor L of H = [s_{i+j}], i, j < n, and J = L^-1 H1 L^-*
    with H1 = [s_{i+j+1}].  Each eigenpair (x, v) of J gives the node x and
    the weight w w^* with w = L_00 v[:q], L_00 the leading block of L.
    """
    seq = [np.asarray(s, dtype=complex) for s in seq]
    n = len(seq) // 2
    if n == 0:
        return [], []
    q = seq[0].shape[0]
    h = np.zeros((n * q, n * q), dtype=complex)
    h1 = np.zeros_like(h)
    for i in range(n):
        for j in range(n):
            h[i * q:(i + 1) * q, j * q:(j + 1) * q] = seq[i + j]
            h1[i * q:(i + 1) * q, j * q:(j + 1) * q] = seq[i + j + 1]
    low = np.linalg.cholesky(0.5 * (h + h.conj().T))
    half = np.linalg.solve(low, h1)
    jac = np.linalg.solve(low, half.conj().T).conj().T
    vals, vecs = np.linalg.eigh(0.5 * (jac + jac.conj().T))
    lead = low[:q, :q]
    nodes, weights = [], []
    for k in range(n * q):
        w = lead @ vecs[:q, k]
        nodes.append(float(vals[k]))
        weights.append(np.outer(w, w.conj()))
    return nodes, weights


def oracle_block_radau(alpha, seq):
    """(nodes, weights) of the block Gauss-Radau rule of ``seq``,
    s_0..s_{2n}, with a node at alpha: the Gauss rule of the shifted
    moments s_{j+1} - alpha s_j, weights divided by (x_k - alpha), and
    s_0 minus their sum put at alpha."""
    seq = [np.asarray(s, dtype=complex) for s in seq]
    shifted = [seq[j + 1] - alpha * seq[j] for j in range(len(seq) - 1)]
    gauss_nodes, gauss_weights = oracle_block_gauss(shifted)
    weights = [w / (x - alpha) for x, w in zip(gauss_nodes, gauss_weights)]
    rest = seq[0] - sum(weights, np.zeros_like(seq[0]))
    return [alpha] + gauss_nodes, [rest] + weights


def oracle_jtilde(q):
    """The 2q x 2q signature matrix [[0, -iI],[iI, 0]]."""
    j = np.zeros((2 * q, 2 * q), dtype=complex)
    j[:q, q:] = -1j * np.eye(q)
    j[q:, :q] = 1j * np.eye(q)
    return j


def oracle_jform(x, j):
    """X^* (-J) X by plain matrix products."""
    x = np.asarray(x, dtype=complex)
    return x.conj().T @ (-j) @ x


def oracle_v_at(alpha, a, z, rtol=1e-12):
    """Direct evaluation of the descent generator at a point."""
    a = np.asarray(a, dtype=complex)
    ap = oracle_pinv(a, rtol)
    q = a.shape[0]
    zero = np.zeros((q, q), dtype=complex)
    eye = np.eye(q, dtype=complex)
    return np.block([[zero, -a], [(z - alpha) * ap, (z - alpha) * eye]])


def oracle_w_at(alpha, a, z, rtol=1e-12):
    """Direct evaluation of the ascent generator at a point."""
    a = np.asarray(a, dtype=complex)
    ap = oracle_pinv(a, rtol)
    q = a.shape[0]
    eye = np.eye(q, dtype=complex)
    return np.block([[(z - alpha) * eye, a], [-(z - alpha) * ap, eye - ap @ a]])


def oracle_w_metric_correction(alpha, a, z, rtol=1e-12):
    """Closed form of diag((z-a)I, I)W(z) conjugated into the J-metric.

    Block entries derived by hand from the generator definition:
      E11 = -2|z-alpha|^2 Im(z) a^+
      E12 =  i|z-alpha|^2 aa^+ + i conj(z-alpha)^2 (I - aa^+)
      E21 = -i(z-alpha)^2 (I - aa^+) - i|z-alpha|^2 aa^+
      E22 =  0
    """
    a = np.asarray(a, dtype=complex)
    ap = oracle_pinv(a, rtol)
    q = a.shape[0]
    eye = np.eye(q, dtype=complex)
    proj = a @ ap
    u = z - alpha
    e11 = -2.0 * abs(u) ** 2 * np.imag(z) * ap
    e12 = 1j * abs(u) ** 2 * proj + 1j * np.conj(u) ** 2 * (eye - proj)
    e21 = -1j * u ** 2 * (eye - proj) - 1j * abs(u) ** 2 * proj
    e22 = np.zeros((q, q), dtype=complex)
    return np.block([[e11, e12], [e21, e22]])


def oracle_adjugate(m):
    """Adjugate by explicit cofactor minors (slow; test sizes only)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    adj = np.zeros_like(m)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def random_hermitian(rng, q, scale=1.0):
    a = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    return scale * 0.5 * (a + a.conj().T)


def random_psd(rng, q, rank=None, scale=1.0):
    rank = q if rank is None else rank
    b = rng.standard_normal((q, rank)) + 1j * rng.standard_normal((q, rank))
    return scale * (b @ b.conj().T) / max(rank, 1)


def random_measure(rng, q, n_atoms, alpha=0.0, spread=2.0, ranks=None):
    """Seeded atomic measure with nodes in [alpha, alpha+spread]."""
    nodes = np.sort(alpha + spread * rng.random(n_atoms))
    if ranks is None:
        ranks = [q] * n_atoms
    weights = [random_psd(rng, q, rank=r) for r in ranks]
    return list(nodes), weights


def oracle_verify_pair(pair, grid, psd_tol=1e-9):
    """The admissibility report of ``verify_pair``, one grid point at a time.

    Each point is evaluated by calling the pair's components; a point
    where either raises ArithmeticError (a pole), and a point on the
    half-axis [alpha, inf), is skipped and counted.
    The forms are X^* (-J) X with the signature matrices written out, and
    each margin is the least eigenvalue of (F + F^*)/2 over max(1, largest
    modulus).
    """
    q = pair.q
    eye = np.eye(q)
    zero = np.zeros((q, q))
    jt = np.block([[zero, -1j * eye], [1j * eye, zero]])
    jr = np.block([[zero, -eye], [-eye, zero]])

    def margin(form):
        w = np.linalg.eigvalsh(0.5 * (form + form.conj().T))
        return float(w[0]) / max(1.0, float(np.abs(w).max()))

    rank_gaps, kd1, kd2, real = [], [], [], []
    for pt in grid:
        z = complex(pt)
        if z.imag == 0.0 and z.real >= pair.alpha:
            continue
        try:
            ph, ps = pair.phi(z), pair.psi(z)
        except ArithmeticError:
            continue
        stk = np.vstack([ph, ps])
        sv = np.linalg.svd(stk, compute_uv=False)
        rank_gaps.append(float(sv[-1] / max(sv[0], 1e-300)))
        if z.imag != 0.0:
            kd1.append(margin(stk.conj().T @ (-jt) @ stk / (2.0 * z.imag)))
            stk2 = np.vstack([(z - pair.alpha) * ph, ps])
            kd2.append(margin(stk2.conj().T @ (-jt) @ stk2 / (2.0 * z.imag)))
        else:
            real.append(margin(stk.conj().T @ (-jr) @ stk))
    kd1_m = min(kd1, default=0.0)
    kd2_m = min(kd2, default=0.0)
    real_m = min(real, default=0.0)
    report = {
        "rank_ok": min(rank_gaps) > 1e-10,
        "min_rank_gap": min(rank_gaps),
        "kd1_margin": kd1_m,
        "kd1_ok": kd1_m >= -psd_tol,
        "kd2_margin": kd2_m,
        "kd2_ok": kd2_m >= -psd_tol,
        "real_axis_margin": real_m,
        "real_axis_ok": real_m >= -psd_tol,
        "skipped_points": len(grid) - len(rank_gaps),
    }
    report["ok"] = (report["rank_ok"] and report["kd1_ok"]
                    and report["kd2_ok"] and report["real_axis_ok"])
    return report


def oracle_simplify(f):
    """``RationalMatFun.simplify`` by the bottom-up search: trial
    denominator degrees in ascending order, the first candidate that
    passes both the function's ``_refit`` and its ``_matches`` taken, then
    the canonical unit that makes the leading denominator coefficient real
    and positive."""
    num = f.num.trimmed()
    den = f.den
    dn = len(den) - 1
    if not num.coeffs.any():
        return type(f)(type(num).constant(np.zeros(num.shape)), (1.0,))
    if dn > 0:
        nd = num.degree
        num_c = num.coeffs.transpose(1, 2, 0)
        pole_scale = 1.0 + float(np.abs(np.polynomial.polynomial.polyroots(den)).max())
        for d in range(max(0, dn - nd), dn):
            cand = f._refit(num_c, den, nd - (dn - d), d)
            if cand is not None and f._matches(cand, pole_scale):
                num, den = cand.num, cand.den
                break
    lead = den[-1]
    if lead.imag != 0.0 or lead.real < 0.0:
        unit = abs(lead) / lead
        den = den * unit
        den[-1] = abs(lead)
        num = num.scale(unit)
    return type(f)(num, den)


# -- the synthesis kernels as first written, one numpy call per matrix ------

def literal_coeff_norms(coeffs):
    """Frobenius norm of each coefficient of a stack, one at a time."""
    return [float(np.linalg.norm(c)) for c in coeffs]


def literal_convolve(x, y):
    """Coefficient stack of the product of the stacks ``x`` and ``y``."""
    width = len(y)
    out = np.zeros((len(x) + width - 1, x.shape[1], y.shape[2]),
                   dtype=complex)
    for i, a in enumerate(x):
        out[i:i + width] += a @ y
    return out


def literal_balanced_radius(coeffs):
    """The interpolation's circle radius: the Fujiwara-style bound on the
    roots of the norms of the coefficients, between 1 and 1e4."""
    norms = literal_coeff_norms(coeffs)
    top = max(norms)
    if top == 0.0:
        return 1.0
    lead = max(j for j, m in enumerate(norms) if m > 1e-12 * top)
    if lead == 0:
        return 1.0
    radius = 1.0
    for j in range(lead):
        if norms[j] > 0.0:
            radius = max(radius, (norms[j] / norms[lead]) ** (1.0 / (lead - j)))
    return min(radius, 1e4)


def literal_interp_coeffs(coeffs, fn, k):
    """Coefficients of fn(p(z)), degree < k, for the stack ``coeffs`` of p:
    one Horner walk, one ``fn`` call and one FFT per sampling circle, each
    coefficient from the circle with the smallest error bound."""
    radius = literal_balanced_radius(coeffs)
    radii = [1.0]
    if radius > 1.5:
        radii.append(float(radius))
    if radius > 30.0:
        radii.insert(1, float(np.sqrt(radius)))
    best = None
    best_err = None
    powers = np.arange(k, dtype=float)
    for r in radii:
        nodes = r * np.exp(2j * np.pi * np.arange(k) / k)
        vals = fn(literal_horner(coeffs, nodes))
        out = np.fft.fft(vals, axis=0) / k
        shape = (slice(None),) + (None,) * (out.ndim - 1)
        out = out / (r ** powers)[shape]
        err = np.finfo(float).eps * float(np.abs(vals).max()) / r ** powers
        if best is None:
            best, best_err = out, err
        else:
            pick = err < best_err
            best[pick] = out[pick]
            best_err = np.minimum(best_err, err)
    return best


def literal_scale_poly(coeffs, scalar_coeffs):
    """A coefficient stack times a scalar polynomial."""
    sc = np.atleast_1d(np.asarray(scalar_coeffs, dtype=complex))
    n = len(coeffs)
    out = np.zeros((n + len(sc) - 1,) + coeffs.shape[1:], dtype=complex)
    for j in range(len(sc) - 1, -1, -1):
        out[j:j + n] += sc[j] * coeffs
    return out


def literal_add(x, y):
    """Sum of two coefficient stacks, the shorter padded with zeros."""
    n = max(len(x), len(y))
    a, b = (np.concatenate((p, np.zeros((n - len(p),) + p.shape[1:])))
            for p in (x, y))
    return a + b


def literal_trimmed(coeffs, rel=1e-13):
    """The stack without trailing coefficients of norm at most rel times
    max(1, the largest norm); the constant one always stays."""
    sizes = literal_coeff_norms(coeffs)
    cut = rel * max(1.0, max(sizes))
    n = len(coeffs)
    while n > 1 and sizes[n - 1] <= cut:
        n -= 1
    return coeffs[:n]


def literal_num_den(gen, phi_num, phi_den, psi_num, psi_den):
    """Numerator and denominator stacks of the linear-fractional action of
    the generator stack ``gen`` on a pair: four q x q blocks, four
    products."""
    half = gen.shape[1] // 2
    halves = (slice(None, half), slice(half, None))
    a, b, c, d = (gen[:, i, j] for i in halves for j in halves)
    num = literal_add(literal_scale_poly(literal_convolve(a, phi_num), psi_den),
                      literal_scale_poly(literal_convolve(b, psi_num), phi_den))
    den = literal_add(literal_scale_poly(literal_convolve(c, phi_num), psi_den),
                      literal_scale_poly(literal_convolve(d, psi_num), phi_den))
    return literal_trimmed(num), literal_trimmed(den)


def literal_divide_by_root(c, alpha):
    """(quotient, remainder) of the stack ``c`` divided by (z - alpha)."""
    quo = np.empty_like(c[1:])
    acc = c[-1]
    for j in range(len(c) - 2, -1, -1):
        quo[j] = acc
        acc = c[j] + alpha * acc
    return quo, acc


def literal_horner(coeffs, z):
    """Horner evaluation of a coefficient stack at a point or at an array
    of points, the leading coefficient broadcast to the full shape first."""
    n = len(coeffs) - 1
    acc = coeffs[n]
    z = np.asarray(z)
    if z.ndim:
        z = z[..., None, None]
        acc = np.broadcast_to(acc, z.shape[:-2] + coeffs.shape[1:])
    for k in range(n - 1, -1, -1):
        acc = acc * z + coeffs[k]
    return acc if n else acc.copy()


def oracle_matches(f, other, pole_scale):
    """``simplify``'s acceptance test of ``other`` against ``f``, point by
    point with numpy's norm, at the same control points."""
    from stieltjesmp.pairs import SIMPLIFY_REL, grid_values

    points = [pole_scale * t * np.exp(1j * ang) for t, ang in
              ((0.11, 0.77), (0.43, 2.1), (1.19, -1.3), (2.3, 0.4))]
    _, (refs, gots) = grid_values((f, other), points)
    return len(refs) > 0 and not any(
        np.linalg.norm(got - ref) > SIMPLIFY_REL * (1.0 + np.linalg.norm(ref))
        for ref, got in zip(refs, gots))


# -- solve's atomic path as first written, before its numpy calls were cut --

def literal_frob(a):
    """``matcore.frob`` as first written."""
    import math

    from stieltjesmp.matcore import frobs

    x = np.asarray(a)
    kind = x.dtype.kind
    if kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if kind == "c":
        re, im = x.real, x.imag
        sq = float(np.vdot(re, re)) + float(np.vdot(im, im))
    else:
        sq = float(np.vdot(x, x))
    if sq != math.inf and (sq >= np.finfo(float).tiny or not x.any()):
        return math.sqrt(sq)
    return float(frobs(x.reshape(1, -1)))


def literal_frob_at_most(x, y, c, floor):
    """``matcore.frob_at_most`` as first written: two whole-array sums of
    squares decide the path, then every norm is summed again."""
    import math

    from stieltjesmp.matcore import _max_modulus, frobs

    def in_range_frobs(s):
        v = s.reshape(s.shape[:-2] + (1, s.shape[-2] * s.shape[-1]))
        sq = (v.real @ v.real.swapaxes(-1, -2)
              + v.imag @ v.imag.swapaxes(-1, -2))[..., 0, 0]
        if sq.min(initial=math.inf) >= np.finfo(float).tiny:
            return np.sqrt(sq)
        return frobs(s)

    xx = float(np.vdot(x, x).real)
    if xx == 0.0 and not x.any():
        ok = np.ones(np.broadcast_shapes(x.shape[:-2], y.shape[:-2],
                                         np.shape(floor)), dtype=bool)
        return bool(ok) if ok.ndim == 0 else ok
    if xx + float(np.vdot(y, y).real) < math.inf:
        if x.ndim == y.ndim == 2:
            return bool(literal_frob(x) <= c * (floor + literal_frob(y)))
        return in_range_frobs(x) <= c * (floor + in_range_frobs(y))
    big = np.maximum(_max_modulus(x), _max_modulus(y))
    scale = np.ldexp(1.0, -np.clip(np.frexp(big)[1], -1021, 1021))
    ok = (frobs(x * scale[..., None, None])
          <= c * (floor * scale + frobs(y * scale[..., None, None])))
    return bool(ok) if ok.ndim == 0 else ok


def literal_unit_den(den, rel=1e-13):
    """(den, top) of ``RationalMatFun``'s constructor as first written: the
    coefficients without their negligible trailing ones, divided by the
    largest modulus ``top`` unless it lies in [0.5, 2] (then top is None);
    the moduli by Python's abs, one coefficient at a time."""
    den = np.atleast_1d(np.array(den, dtype=complex))
    sizes = [abs(x) for x in den]
    cut = rel * max(1.0, max(sizes))
    n = len(den)
    while n > 1 and sizes[n - 1] <= cut:
        n -= 1
    den = den[:n]
    top = max(sizes[:n])
    if not (0.5 <= top <= 2.0):
        return den / top, top
    return den, None


def literal_moments(mu, m):
    """``measures.moments`` as first written: for each j, (x ** j) w added
    over the atoms in order to complex zeros, under numpy's overflow
    trap."""
    from stieltjesmp.hankel import MomentSequence

    mats = []
    try:
        with np.errstate(over="raise"):
            for j in range(m + 1):
                s = np.zeros((mu.q, mu.q), dtype=complex)
                for x, w in zip(mu.nodes, mu.weights):
                    s = s + (x ** j) * w
                mats.append(s)
    except (OverflowError, FloatingPointError):
        raise ValueError(f"moment s_{j} overflows the float range") from None
    return MomentSequence(mu.alpha, tuple(mats))


def literal_parameter_atoms(pair, zs, ph, tol, atoms_rel=1e-10):
    """``solver._parameter_atoms`` as first written for a phi without
    atoms: numpy's polyder and polyval for the slope, a polynomial object's
    Horner for the residues and ``tensordot`` for the fit; a denominator
    that is not real divided, with the numerator, by its leading
    coefficient."""
    import numpy.polynomial.polynomial as npoly

    from stieltjesmp import matcore
    from stieltjesmp.matcore import PreconditionError

    phi, psi = pair.phi, pair.psi
    if len(psi.den) > 1 or len(literal_trimmed(psi.num.coeffs)) > 1:
        return None
    p0 = psi.num.coeffs[0] / psi.den[0]
    sv = np.linalg.svd(p0, compute_uv=False)
    if not sv[-1] >= tol.det_gate * sv[0] > 0.0:
        return None
    p0inv = np.linalg.inv(p0)
    num = literal_trimmed(phi.num.coeffs) @ p0inv
    den = phi.den
    d = len(den) - 1
    if den.imag.any():
        num, den = num / den[d], den / den[d]
    if len(num) > d + 1 or den.imag.any():
        return None
    y = npoly.polyroots(den.real)
    if np.iscomplexobj(y):
        return None
    y.sort()
    if d and (y[0] < pair.alpha or not np.all(np.diff(y) > 0.0)):
        return None
    c = num[d] / den[d] if len(num) == d + 1 else np.zeros_like(p0)
    slope = npoly.polyval(y, npoly.polyder(den.real))
    atoms = np.concatenate((c[None], -literal_horner(num, y)
                            / slope[:, None, None]))
    atoms = matcore.symmetrized(atoms)
    c, w = atoms[0], atoms[1:]
    g = ph @ p0inv
    fit = c + np.tensordot(1.0 / (y - zs[:, None]), w, 1)
    if not len(zs) or not np.all(literal_frob_at_most(fit - g, g, atoms_rel,
                                                      0.0)):
        return None
    margins = matcore.psd_margin(atoms)
    bad = np.flatnonzero(margins < -tol.psd)
    if bad.size:
        i = bad[0]
        name = "constant" if i == 0 else f"residue at {y[i - 1]:.6g}"
        raise PreconditionError("parameter pair is not admissible: its "
                                f"{name} has PSD margin {margins[i]:.3e}")
    return c, y, w


def literal_check_denominator(dens, tol, stage, points=None):
    """``lft.check_denominator`` as first written."""
    from stieltjesmp.matcore import SingularDenominatorError

    sv = np.linalg.svd(dens, compute_uv=False)
    if not sv.shape[-1]:
        sv = np.zeros(sv.shape[:-1] + (1,))
    top, low = sv[..., 0].ravel(), sv[..., -1].ravel()
    failing = np.flatnonzero(~((top != 0.0) & (low >= tol.det_gate * top)))
    if failing.size:
        k = failing[0]
        gap = float(low[k] / top[k]) if top[k] != 0.0 else 0.0
        point = None if points is None else complex(points[k])
        where = "" if point is None else f" at {point}"
        raise SingularDenominatorError(
            f"linear-fractional denominator is numerically singular{where}",
            stage=stage, point=point, gap=gap,
        )


def literal_gate(trace, zs, top, bottom, tol):
    """``solver._gate_descent_denominator`` as first written, returning the
    stack D it gated: every level built from the trace's tuples, then one
    pass each for non-finite values, |D|^q overflow and the SVD."""
    from stieltjesmp import matcore
    from stieltjesmp.matcore import PreconditionError

    q = len(trace.diagonal[0])
    levels = np.zeros((len(trace.diagonal), 2 * q, 2 * q), dtype=complex)
    levels[:, :q, q:] = np.negative(trace.diagonal)
    levels[:, q:, :q] = trace.pinvs
    levels[:, q:, q:] = np.eye(q)
    u = (zs - trace.input.alpha)[:, None, None]
    x = np.concatenate((top, bottom), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for level in levels[::-1]:
            x = level @ x
            x[:, q:] *= u
    dens = x[:, q:]
    j = matcore.first_non_finite(dens)
    if j is not None:
        raise PreconditionError(f"synthesis denominator at grid point "
                                f"{complex(zs[j])} is not finite")
    with np.errstate(over="ignore"):
        if not np.all(matcore.frobs(dens) ** q < np.inf):
            raise PreconditionError("determinant of the synthesis "
                                    "denominator leaves the float range")
    literal_check_denominator(dens, tol, "synthesis", zs)
    return dens


def literal_atomic_solution(trace, c, y, w, tol, merge_rel=1e-12,
                            weight_rel=1e-12):
    """``solver._atomic_solution`` as first written: the blocks of T above
    the diagonal concatenated, their block rows and columns listed by
    ``arange``, and their adjoints written below the diagonal by one
    fancy-indexed assignment."""
    from stieltjesmp import matcore, measures

    diagonal, alpha = trace.diagonal, trace.input.alpha
    q = len(diagonal[0])
    m = len(diagonal) - 1
    k = len(y)
    stack = np.concatenate((diagonal, w))
    x = None
    if c.any():
        x = diagonal[m] @ matcore.pinv(diagonal[m] + c, tol)
        stack[m] = x @ diagonal[m]
    lam, vec = np.linalg.eigh(stack)
    lam = np.maximum(lam, 0.0)
    root = np.sqrt(lam)
    kept = lam > tol.pinv_rtol * lam[:, -1:]
    inv = np.divide(1.0, root, out=np.zeros_like(root), where=kept)
    vh = vec.conj().swapaxes(-1, -2)
    roots = (vec * root[:, None, :]) @ vh
    pinvs = (vec * inv[:, None, :]) @ vh

    couple = roots[m + 1:] if x is None else x @ roots[m + 1:]
    upper = np.concatenate((pinvs[:m] @ roots[1:m + 1], pinvs[m] @ couple,
                            np.sqrt(y - alpha)[:, None, None] * np.eye(q)))
    above = np.concatenate((np.arange(m), np.full(k, m),
                            np.arange(m + 1, m + 1 + k)))
    blocks = m + 1 + 2 * k
    t = np.zeros((blocks, q, blocks, q), dtype=complex)
    t[np.arange(1, blocks), :, above, :] = upper.conj().swapaxes(-1, -2)
    lam, v = np.linalg.eigh(t.reshape(blocks * q, blocks * q))

    p = (roots[0] @ v[:q]).T
    each = p[:, :, None] * p.conj()[:, None, :]
    half = len(lam) // 2
    squares = 0.5 * (lam[:half] ** 2 + lam[::-1][:half] ** 2)
    weights = each[:half] + each[::-1][:half]
    if len(lam) % 2:
        squares = np.append(squares, lam[half] ** 2)
        weights = np.concatenate((weights, each[half:half + 1]))
    order = np.argsort(squares, kind="stable")
    squares, weights = squares[order], weights[order]
    radii = np.sqrt(squares)
    cut = merge_rel * radii[-1]
    squares[radii <= cut] = 0.0
    apart = np.diff(radii) > cut
    if not apart.all():
        starts = np.flatnonzero(np.concatenate(([True], apart)))
        mass = weights.trace(axis1=1, axis2=2).real
        first = squares[starts]
        offset = squares - np.repeat(first, np.diff(starts, append=len(squares)))
        total = np.add.reduceat(mass, starts)
        squares = first + np.divide(np.add.reduceat(mass * offset, starts),
                                    total, out=np.zeros_like(total),
                                    where=total > 0.0)
        weights = np.add.reduceat(weights, starts)
    # W at x is kept when its mass exceeds weight_rel |s_0|, or when its
    # share (x - alpha)^j |W| exceeds weight_rel |t_j| for some j and
    # exceeds |t_j| for none, t_j the moments of the measure moved by -alpha
    s = trace.input.s
    t = [sum(comb(j, i) * (-alpha) ** (j - i) * s[i] for i in range(j + 1))
         for j in range(len(s))]
    nodes = alpha + squares
    kept = np.zeros(len(nodes), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (x, wi) in enumerate(zip(squares, weights)):
            shares = [x ** j * matcore.frob(wi) for j in range(len(t))]
            sizes = [matcore.frob(tj) for tj in t]
            kept[i] = shares[0] > weight_rel * sizes[0] or (
                any(a > weight_rel * b for a, b in zip(shares, sizes))
                and all(a <= b for a, b in zip(shares, sizes)))
    return measures.from_atoms(nodes[kept], weights[kept], q)
