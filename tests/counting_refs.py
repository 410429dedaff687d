"""References for the counting engine that the package itself no longer
needs: evaluating a FreePoly at ring values, the oracle the symbolic and
concrete master formulas are compared through.  Nothing in the package
imports this module."""


def free_substitute(p, values, const):
    """Evaluate the FreePoly p with atom -> value (values may live in any
    ring); `const` embeds rationals into that ring."""
    total = const(0)
    for m, c in p.terms.items():
        v = const(c)
        for a, e in m:
            v = v * (values[a] ** e)
        total = total + v
    return total
