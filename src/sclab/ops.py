"""Stochastic arithmetic kernels: bitwise circuits over packed streams.

These are circuits, not validators: correlation preconditions (uncorrelated
inputs for multiplication, shared-sequence inputs for minimum) are the
caller's responsibility.
"""

from .bitstream import Bitstream
from .errors import DomainError


def _check_lengths(*streams):
    n = streams[0].length
    for s in streams[1:]:
        if s.length != n:
            raise DomainError(f"stream length mismatch: {[t.length for t in streams]}")
    return n


def mul_unipolar(s1, s2):
    """Unipolar product: bitwise AND."""
    n = _check_lengths(s1, s2)
    return Bitstream._adopt(s1.words & s2.words, n)


def mul_bipolar(s1, s2):
    """Bipolar product: bitwise XNOR."""
    n = _check_lengths(s1, s2)
    return Bitstream._adopt(~(s1.words ^ s2.words), n)


def min_correlated(s1, s2):
    """Minimum of two streams sharing one sequence (maximal 1-overlap): AND."""
    return mul_unipolar(s1, s2)


def mux2(s1, s2, select):
    """Scaled addition MUX: bit i routes s1 on select 0, s2 on select 1."""
    n = _check_lengths(s1, s2, select)
    return Bitstream._adopt((s1.words & ~select.words) | (s2.words & select.words), n)


def mux2_sub(s1, s2, select):
    """Scaled subtraction: MUX with one inverter on the second input."""
    n = _check_lengths(s1, s2, select)
    return Bitstream._adopt((s1.words & ~select.words) | (~s2.words & select.words), n)


def mux4(i11, i12, i21, i22, sel_u, sel_v):
    """4-to-1 MUX: (sel_u, sel_v) = (0,0)/(0,1)/(1,0)/(1,1) routes i11/i12/i21/i22."""
    n = _check_lengths(i11, i12, i21, i22, sel_u, sel_v)
    u, v = sel_u.words, sel_v.words
    words = (
        (i11.words & ~u & ~v)
        | (i12.words & ~u & v)
        | (i21.words & u & ~v)
        | (i22.words & u & v)
    )
    return Bitstream._adopt(words, n)
