"""Adaptive quadrature: QUADPACK's Gauss-Kronrod rules under a plain QAG loop.

The rules are dqk21 and dqk15i of Piessens, de Doncker-Kapenga, Ueberhuber
and Kahaner, QUADPACK (Springer, 1983): one rule body on two tables, with
their float operations in their order.  The loop is dqage's adaptive
bisection, with no extrapolation.
"""

from __future__ import annotations

import math
import sys
import warnings

EPSABS = 1e-10
EPSREL = 1e-10
LIMIT = 200  # most subintervals
_EPMACH, _UFLOW = sys.float_info.epsilon, sys.float_info.min

# A Gauss-Kronrod rule on [-1, 1]: its nodes without the centre, the Kronrod
# weights and the Gauss weights at the same positions (0.0 at the Kronrod-only
# nodes), each with the centre's last, and the order in which QUADPACK visits
# the node pairs.  dqk21's 10-point Gauss nodes are its odd-indexed ones.
_GK21 = ((0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720),
         (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821),
         (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
          0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
          0.0, 0.295524224714752870173892994651338, 0.0),
         (1, 3, 5, 7, 9, 0, 2, 4, 6, 8))  # the Gauss nodes first, as dqk21
_GK15 = ((0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245),
         (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714),
         (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
          0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327),
         tuple(range(7)))

_FAILURES = {
    1: f"the maximum number of subintervals ({LIMIT}) has been reached",
    2: "roundoff error keeps the requested tolerance from being reached",
    3: "the integrand behaves extremely badly at some points of the interval",
}


def quad(func, a: float, b: float) -> tuple[float, float]:
    """Integral of func over [a, b] with b finite or inf, and its error estimate.

    The 21-point Gauss-Kronrod rule on [a, b]; for b = inf, the 15-point rule
    on (0, 1] after QAGI's map x = a + (1 - t)/t, with the integrand divided
    by t**2.  Both rules run through one body, _qk.  The subinterval with the
    largest error is bisected until the summed error meets max(EPSABS, EPSREL
    |integral|), with at most LIMIT subintervals.  func takes and returns a
    float.  A RuntimeWarning names the reason when the loop stops short
    (dqage's ier 1-3); a non-finite integrand raises ValueError.
    """
    a, b = float(a), float(b)
    if not math.isfinite(a):
        raise ValueError(f"quad needs a finite lower limit a, got {a!r}")
    if not b > a:  # also rejects a NaN b
        raise ValueError(f"quad needs a < b <= inf, got a={a!r}, b={b!r}")
    if b == math.inf:  # QAGI's map, written as dqk15i writes it
        result, abserr, ier = _qag(lambda t: (float(func(a + (1.0 - t) / t)) / t) / t,
                                   0.0, 1.0, _GK15, lambda t: a + (1.0 - t) / t if t else math.inf)
    else:
        result, abserr, ier = _qag(func, a, b, _GK21, float)
    if ier:
        warnings.warn(f"quad over [{a!r}, {b!r}]: {_FAILURES[ier]} (QUADPACK ier={ier});"
                      f" error estimate {abserr:.3g}", RuntimeWarning, stacklevel=2)
    return result, abserr


def _qk(f, a: float, b: float, rule):
    """One Gauss-Kronrod rule on [a, b], a < b, as dqk21 and dqk15i compute it:
    (integral, error estimate, integral of |f|, integral of |f - mean|)."""
    xgk, wgk, wg, order = rule
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = float(f(centr))
    resg = wg[-1] * fc
    resk = wgk[-1] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * len(xgk), [0.0] * len(xgk)
    for j in order:
        absc = hlgth * xgk[j]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[j], fv2[j] = fval1, fval2
        fsum = fval1 + fval2
        resg = resg + wg[j] * fsum  # a zero weight adds +-0.0, which moves no bit
        resk = resk + wgk[j] * fsum
        resabs = resabs + wgk[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = wgk[-1] * abs(fc - reskh)
    for j in range(len(xgk)):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * hlgth
    resasc = resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qag(f, a: float, b: float, rule, x_of):
    """dqage for f on [a, b] with `rule` as the local rule: (result, abserr, ier).

    x_of maps f's variable to quad's func's, to name a non-finite subinterval.
    """
    def piece(lo, hi):
        out = _qk(f, lo, hi, rule)
        if not (math.isfinite(out[0]) and math.isfinite(out[1])):
            x_lo, x_hi = sorted((x_of(lo), x_of(hi)))
            raise ValueError(f"quad: the integrand is not finite on [{x_lo!r}, {x_hi!r}]:"
                             f" integral {out[0]!r}, error estimate {out[1]!r}")
        return out

    # as in dqage, defabs is the rule's integral of |f| and resabs of |f - mean|
    result, abserr, defabs, resabs = piece(a, b)
    errbnd = max(EPSABS, EPSREL * abs(result))
    ier = 2 if abserr <= 50.0 * _EPMACH * defabs and abserr > errbnd else 0
    if ier or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier
    pieces = [(a, b, result, abserr)]  # (lo, hi, integral, error), in dqage's order
    area, errsum = result, abserr
    iroff1 = iroff2 = 0
    for last in range(2, LIMIT + 1):
        # bisect the subinterval with the largest error estimate
        maxerr = max(range(len(pieces)), key=lambda k: pieces[k][3])
        a1, b2, rmax, errmax = pieces[maxerr]
        b1 = 0.5 * (a1 + b2)
        area1, error1, _, defab1 = piece(a1, b1)
        area2, error2, _, defab2 = piece(b1, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rmax
        if defab1 != error1 and defab2 != error2:
            if abs(rmax - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff2 += 1
        errbnd = max(EPSABS, EPSREL * abs(area))
        if errsum > errbnd:
            if iroff1 >= 6 or iroff2 >= 20:
                ier = 2
            if last == LIMIT:
                ier = 1
            if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(b1) + 1000.0 * _UFLOW):
                ier = 3  # too small to bisect
        halves = [(a1, b1, area1, error1), (b1, b2, area2, error2)]
        if error2 > error1:  # the half with the larger error keeps the bisected one's place
            halves.reverse()
        pieces[maxerr] = halves[0]
        pieces.append(halves[1])
        if ier or errsum <= errbnd:
            break
    result = 0.0
    for piece_k in pieces:  # added in list order, as dqage
        result = result + piece_k[2]
    return result, errsum, ier
