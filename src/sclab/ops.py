"""Stochastic arithmetic kernels: bitwise circuits over packed streams.

These are circuits, not validators: correlation preconditions (uncorrelated
inputs for multiplication, shared-sequence inputs for minimum) are the
caller's responsibility.  Only `mul_bipolar`'s outer `~` can set pad bits, so
it alone builds its result through the checked constructor `Bitstream(...)`,
which copies the words and masks them; every other result is an AND or select
of zero-padded words, wrapped as it is.
"""

from .bitstream import Bitstream
from .errors import DomainError


def _check_lengths(*streams):
    n = streams[0].length
    for s in streams[1:]:
        if s.length != n:
            raise DomainError(f"stream length mismatch: {[t.length for t in streams]}")
    return n


def _select(a, b, sel):
    """Words of a where sel is 0 and of b where it is 1: a ^ ((a ^ b) & sel)."""
    out = a ^ b
    out &= sel
    out ^= a
    return out


def mul_unipolar(s1, s2):
    """Unipolar product: bitwise AND."""
    n = s1.length
    if s2.length != n:
        _check_lengths(s1, s2)
    return Bitstream._wrap(s1.words & s2.words, n)


def mul_bipolar(s1, s2):
    """Bipolar product: bitwise XNOR."""
    n = _check_lengths(s1, s2)
    return Bitstream(~(s1.words ^ s2.words), n)


def min_correlated(s1, s2):
    """Minimum of two streams sharing one sequence (maximal 1-overlap): AND."""
    return mul_unipolar(s1, s2)


def mux2(s1, s2, select):
    """Scaled addition MUX: bit i routes s1 on select 0, s2 on select 1."""
    n = s1.length
    if not s2.length == select.length == n:
        _check_lengths(s1, s2, select)
    return Bitstream._wrap(_select(s1.words, s2.words, select.words), n)


def mux2_sub(s1, s2, select):
    """Scaled subtraction: MUX with one inverter on the second input."""
    n = s1.length
    if not s2.length == select.length == n:
        _check_lengths(s1, s2, select)
    return Bitstream._wrap(_select(s1.words, ~s2.words, select.words), n)


def mux4(i11, i12, i21, i22, sel_u, sel_v):
    """4-to-1 MUX: (sel_u, sel_v) = (0,0)/(0,1)/(1,0)/(1,1) routes i11/i12/i21/i22."""
    n = _check_lengths(i11, i12, i21, i22, sel_u, sel_v)
    v = sel_v.words
    low, high = _select(i11.words, i12.words, v), _select(i21.words, i22.words, v)
    return Bitstream._wrap(_select(low, high, sel_u.words), n)
