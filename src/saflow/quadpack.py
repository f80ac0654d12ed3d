"""Adaptive quadrature: QUADPACK's QAGS and QAGI in pure Python.

The routines are those of Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, QUADPACK (Springer, 1983): dqagse, dqagie, dqk21, dqk15i, dqpsrt
and dqelg, ported float operation for float operation, so each value and
error estimate equals scipy.integrate.quad's (the same routines, compiled
without fused multiply-adds) bit for bit.  The interval lists are 1-based as
in QUADPACK: index 0 is unused.
"""

from __future__ import annotations

import math
import sys
import warnings

EPSABS = 1e-10
EPSREL = 1e-10
LIMIT = 200  # most subintervals
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# 21-point Gauss-Kronrod rule on [-1, 1]: Kronrod nodes, the odd-indexed ones
# the 10-point Gauss nodes, and the centre last; the Kronrod and Gauss weights
_XGK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
          0.0)
_WGK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
         0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)
# 15-point Gauss-Kronrod rule: Kronrod nodes and weights, and the 7-point
# Gauss weights at the same positions (zero at the Kronrod-only nodes)
_XGK15 = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245, 0.0)
_WGK15 = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG7 = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)

_FAILURES = {
    1: f"the maximum number of subintervals ({LIMIT}) has been reached",
    2: "roundoff error keeps the requested tolerance from being reached",
    3: "the integrand behaves extremely badly at some points of the interval",
    4: "roundoff error in the extrapolation table keeps the algorithm from converging",
    5: "the integral is probably divergent, or slowly convergent",
}


def quad(func, a: float, b: float) -> tuple[float, float]:
    """Integral of func over [a, b] with b finite or inf, and its error estimate.

    QAGS on a finite interval: the 21-point Gauss-Kronrod rule, bisection of
    the subinterval with the largest error and epsilon-algorithm
    extrapolation.  QAGI on [a, inf): the same on (0, 1] after the map
    x = a + (1 - t)/t, with the 15-point rule.  Both aim at EPSABS and EPSREL
    with at most LIMIT subintervals.  func takes and returns a float.  When
    QUADPACK reports that the estimate may miss the tolerance (its ier 1-5),
    a RuntimeWarning names the reason.
    """
    a, b = float(a), float(b)
    if not math.isfinite(a):
        raise ValueError(f"quad needs a finite lower limit a, got {a!r}")
    if not b > a:  # also rejects a NaN b
        raise ValueError(f"quad needs a < b <= inf, got a={a!r}, b={b!r}")
    if b == math.inf:
        result, abserr, ier = _qag(lambda lo, hi: _qk15i(func, a, lo, hi), 0.0, 1.0)
    else:
        result, abserr, ier = _qag(lambda lo, hi: _qk21(func, lo, hi), a, b)
    if ier:
        warnings.warn(f"quad over [{a!r}, {b!r}]: {_FAILURES[ier]} (QUADPACK ier={ier});"
                      f" error estimate {abserr:.3g}", RuntimeWarning, stacklevel=2)
    return result, abserr


def _qk21(f, a: float, b: float):
    """dqk21: (integral, error estimate, integral of |f|, integral of |f - mean|)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first, as dqk21
        absc = hlgth * _XGK21[j]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG10[j // 2] * fsum
        resk = resk + _WGK21[j] * fsum
        resabs = resabs + _WGK21[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK21[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK21[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    return result, _rule_error(abserr, resabs, resasc), resabs, resasc


def _qk15i(f, boun: float, a: float, b: float):
    """dqk15i for [boun, inf) mapped onto (a, b) within (0, 1]; as _qk21."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = (float(f(boun + (1.0 - centr) / centr)) / centr) / centr
    resg = _WG7[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(7):
        absc = hlgth * _XGK15[j]
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = (float(f(boun + (1.0 - absc1) / absc1)) / absc1) / absc1
        fval2 = (float(f(boun + (1.0 - absc2) / absc2)) / absc2) / absc2
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG7[j] * fsum
        resk = resk + _WGK15[j] * fsum
        resabs = resabs + _WGK15[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK15[7] * abs(fc - reskh)
    for j in range(7):
        resasc = resasc + _WGK15[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    return result, _rule_error(abserr, resabs, resasc), resabs, resasc


def _rule_error(abserr: float, resabs: float, resasc: float) -> float:
    """The error estimate of a Gauss-Kronrod rule from |Kronrod - Gauss|."""
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return abserr


def _qag(rule, a: float, b: float):
    """dqagse/dqagie with `rule` as the local rule: (result, abserr, ier)."""
    # names as in dqagse: defabs is the rule's integral of |f|, resabs its
    # integral of |f - mean|
    result, abserr, defabs, resabs = rule(a, b)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    ier = 2 if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd else 0
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier
    size = LIMIT + 1
    alist, blist, rlist, elist = [0.0] * size, [0.0] * size, [0.0] * size, [0.0] * size
    iord = [0] * size
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * 53  # the epsilon table, 52 entries
    res3la = [0.0] * 4   # the last three extrapolated results
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    for last in range(2, LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sum_to(rlist, last), errsum, ier - 1 if ier > 2 else ier
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # bisect the larger intervals first while one has a large error
            jupbnd = last if last <= 2 + LIMIT // 2 else LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        # go on with the smallest intervals
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # the loop ends with a break: take the extrapolated result or the sum
    if abserr == _OFLOW:
        use_sum, test_divergence = True, False
    elif ier + ierro == 0:
        use_sum, test_divergence = False, True
    else:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            use_sum = abserr / abs(result) > errsum / abs(area)
        else:
            use_sum = abserr > errsum
        test_divergence = not use_sum and area != 0.0
    if test_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # result / area as IEEE divides: only +-inf against nan matters here
        ratio = result / area if area else (math.inf if abs(result) > 0 else math.nan)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if use_sum:
        result, abserr = _sum_to(rlist, last), errsum
    return result, abserr, ier - 1 if ier > 2 else ier


def _sum_to(rlist, last: int) -> float:
    """rlist[1] + ... + rlist[last], added in that order."""
    total = 0.0
    for k in range(1, last + 1):
        total = total + rlist[k]
    return total


def _qpsrt(last: int, maxerr: int, elist, iord, nrmax: int):
    """dqpsrt: keep iord ordering the error estimates in elist, descending.

    elist[maxerr] and elist[last] are the two new estimates.  Returns the
    index and estimate of the subinterval to bisect next, and nrmax.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many as can still be bisected are kept in order
        jupbn = last if last <= LIMIT // 2 + 2 else LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # insert errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                    break
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab, res3la, nres: int):
    """dqelg: the epsilon algorithm on the n partial sums in epstab[1..n].

    Returns the new table length, the extrapolated limit, its error estimate
    and the count of calls so far.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements agree: drop the rest of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1  # irregular behaviour: drop the rest of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
