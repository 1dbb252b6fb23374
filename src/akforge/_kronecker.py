"""Exact integer polynomial convolution via Kronecker substitution.

A dense integer polynomial [c0, c1, ..., cn] is packed into a single big
integer with a fixed byte stride per coefficient; the product of two packed
integers is the packed convolution.  Python's sub-quadratic big-integer
multiplication then does the heavy lifting, which beats schoolbook
convolution by a wide margin once operands carry thousands of coefficient
bits.

Negative coefficients are handled by splitting each input into positive and
negative parts, so all packed digits are non-negative and no borrow logic is
needed when unpacking.
"""

from __future__ import annotations

# Below this many coefficient pairs, schoolbook is faster than packing.
_SCHOOLBOOK_CUTOFF = 1024


def _pack(coeffs: list[int], width: int) -> int:
    buf = bytearray(width * len(coeffs))
    for k, c in enumerate(coeffs):
        if c:
            buf[k * width : k * width + (c.bit_length() + 7) // 8] = c.to_bytes(
                (c.bit_length() + 7) // 8, "little"
            )
    return int.from_bytes(buf, "little")


def _unpack(value: int, width: int, count: int) -> list[int]:
    buf = value.to_bytes(width * count + width, "little")
    return [
        int.from_bytes(buf[k * width : (k + 1) * width], "little") for k in range(count)
    ]


def conv(a: list[int], b: list[int]) -> list[int]:
    """Full convolution (polynomial product) of two integer coefficient lists."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    nout = la + lb - 1
    if la * lb <= _SCHOOLBOOK_CUTOFF:
        out = [0] * nout
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return out

    max_a = max(max(a), -min(a), 1)
    max_b = max(max(b), -min(b), 1)
    # Each unpacked digit is a sum of two partial convolutions, hence +2 bits.
    bits = max_a.bit_length() + max_b.bit_length() + min(la, lb).bit_length() + 2
    width = (bits + 7) // 8

    a_pos = _pack([c if c > 0 else 0 for c in a], width)
    a_neg = _pack([-c if c < 0 else 0 for c in a], width)
    b_pos = _pack([c if c > 0 else 0 for c in b], width)
    b_neg = _pack([-c if c < 0 else 0 for c in b], width)

    plus = a_pos * b_pos + a_neg * b_neg
    minus = a_pos * b_neg + a_neg * b_pos

    out_pos = _unpack(plus, width, nout)
    if minus == 0:
        return out_pos
    out_neg = _unpack(minus, width, nout)
    return [p - n for p, n in zip(out_pos, out_neg)]


def conv_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    """First ``n`` coefficients of the product; inputs beyond x^{n-1} are irrelevant."""
    if n <= 0:
        return []
    out = conv(a[:n], b[:n])
    del out[n:]
    return out
