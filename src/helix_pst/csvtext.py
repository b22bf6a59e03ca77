"""CSV text of numeric columns, byte-identical to "%.12g" formatting.

rows_g12(*columns) returns the text that

    ("%.12g," * (k - 1) + "%.12g\\n") % row

gives for every row of the k columns, rendered with numpy instead of
one float at a time in Python: each column, its separator fixed, fills
its slots of one block of words, and one translate drops the padding.

Exactness. For a positive finite x take e = floor(log10 x) and
y = fl(x * 10**(11 - e)). For 0 <= 11 - e <= 22, 10**(11 - e) is an
exact double, so y is the exact product z rounded once. Rounding is
monotone, and 1e11, 1e12 and every half-integer below 2**52 are
doubles, so y lies on the same side of each of them as z, or on it.
So when y >= 1e11, y is no half-integer and m = rint(y) < 1e12, m is
the integer nearest to z: the 12-digit mantissa of x that %g gives,
which rounds the exact binary value. (y = 1e11 with z just below 1e11
is no exception: x then rounds to 10**e at 12 digits too.) A log10 off
by one near a power of ten leaves y outside [1e11, 1e12).

From the mantissa m and e the text is %g's: fixed notation for
-4 <= e <= 11, d.ddddddddddde-XX below; trailing zeros after the "."
and a bare "." are stripped. Each field is built in three
little-endian uint64 words, FIELD bytes, NUL padded, from the 16
digits of m * 10**z, z = 4 + e for -4 <= e < 0 and 4 otherwise: they
read "0.000ddd..." once a "." goes in after the first digit, and
"ddd.ddd..." once it goes in after digit e + 1 (fixed) or 1
(scientific). The field keeps the digits up to the last nonzero one or
up to the ".", whichever is later, then the "." if a digit follows
it, the exponent and the separator. Tables give the ASCII digits four
at a time and, by e and the last nonzero digit, the masks and the text
behind the digits; every other step is one whole-array operation.

Each field is built from |x|, as %g rounds the magnitude alone; then
the three words of each negative x's field move up one byte, which a
fast field, at most 18 bytes, has room for, and a "-" fills byte 0.
Every value off the fast path, of either sign, is "%.12g" % v, and a
column's slow fields are patched in one batch: 0, -0.0, subnormals,
non-finite values, e outside [-11, 11], a y that is a half-integer and
a mantissa that rounds up to 10**12. None in an object column is an
empty field.
"""

from __future__ import annotations

import numpy as np

E_LO, E_HI = -11, 11  # exponents of the fast path
FIELD = 24  # bytes per field; the longest %.12g text is 19, plus the separator

_U = np.dtype("<u8")  # little-endian words, whatever the machine's order
_255, _56, _8, _MINUS = np.uint64(255), np.uint64(56), np.uint64(8), np.uint64(ord("-"))

# by exponent e - E_LO: the scale 10**(11 - e), the divisor 10**(8 - z)
# and factor 10**z that split m * 10**z into 8-digit halves, the digit p
# the "." follows, the bytes of each half that move up one byte to make
# room for it, and the exponent text, empty in fixed notation
_EXPS = range(E_LO, E_HI + 1)
_SCALE = np.array([float(10 ** (11 - e)) for e in _EXPS])  # exact doubles
_z = [4 + e if -4 <= e < 0 else 4 for e in _EXPS]
_DIV = np.array([float(10 ** (8 - z)) for z in _z])
_MUL = np.array([float(10 ** z) for z in _z])
_dot = [e + 1 if e >= 0 else 1 for e in _EXPS]
_MOVE_LO = np.array([2 ** 64 - (1 << 8 * p) if p < 8 else 0 for p in _dot], dtype=_U)
_MOVE_HI = np.array([2 ** 64 - (1 << 8 * max(p - 8, 0)) for p in _dot], dtype=_U)
_exponent = [b"" if e >= -4 else b"e%+03d" % e for e in _EXPS]

# four ASCII digits of 0..9999 as one little-endian word; and in row j,
# for group j of four of the 16 digits, by its value v the number of
# digits up to the last nonzero one of v there (0 for v = 0)
_ascii = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _j in range(4):
    _ascii[..., _j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _j))
_DIGITS = _ascii.view("<u4").ravel()
_significant = np.full(10000, 4, dtype=np.uint8)
for _j in (10, 100, 1000, 10000):
    _significant[::_j] -= 1
_END = (_significant + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (_significant > 0)

# by (e - E_LO) * 17 + end, end the digits up to the last nonzero one:
# each word's mask of the digit and "." bytes the field keeps, `length`
# of them, and, before a "," (0) or a "\n" (1), its bytes of what
# follows the digits: the "." where a digit follows it, then the
# exponent text and the separator from byte `length` on
_kept = np.maximum(np.arange(17), np.array(_dot)[:, None])
_length = _kept + (_kept > np.array(_dot)[:, None])
_MASK = (np.arange(FIELD) < _length[..., None]).astype(np.uint8) * np.uint8(255)
_text = np.zeros((2, len(_EXPS), 18 + FIELD), dtype=np.uint8)
_text[:, :, 18:23] = np.frombuffer(
    b"".join(t.ljust(5, b"\0") for t in _exponent), dtype=np.uint8).reshape(-1, 5)
_text[:, np.arange(len(_EXPS)), [18 + len(t) for t in _exponent]] = [[ord(",")], [ord("\n")]]
# the text from byte 18 - length on, the dot, where kept, at its digit
_tail = _text[:, np.arange(len(_EXPS))[:, None, None], 18 - _length[..., None] + np.arange(FIELD)]
_a, _end = np.nonzero(_length > _kept)
_tail[:, _a, _end, np.array(_dot)[_a]] = ord(".")
_MASK = _MASK.reshape(-1, FIELD).view(_U).T.copy()
_TAIL = _tail.reshape(-1, FIELD).view(_U).T.reshape(3, 2, -1)
del _ascii, _j, _significant, _z, _dot, _exponent, _kept, _length, _text, _tail, _a, _end


def _fields(x: np.ndarray, newline: bool, words: np.ndarray, values) -> None:
    """Fill row i of words with "%.12g" of x[i], |x[i]|'s text behind a "-" if
    negative, then "\\n" if newline else ","; a slow row formats values[i], None as ""."""
    with np.errstate(all="ignore"):
        magnitude = np.abs(x)
        # fmax and fmin map nan to a bound, so every index is valid
        at = (np.fmin(np.fmax(np.floor(np.log10(magnitude)), E_LO), E_HI) - E_LO).astype(np.intp)
        y = magnitude * _SCALE[at]
        m = np.rint(y)
        fast = (y >= 1e11) & (m < 1e12) & (np.abs(y - m) < 0.5)
    m = np.fmin(np.fmax(m, 1e11), 1e12 - 1)  # any in-range m for the others
    # the 16 digits of m * 10**z as two halves of two 4-digit groups: each
    # step is exact, as m < 2**40 and each true quotient lies at least
    # 1e-8 from the next integer, far above its rounding
    div = _DIV[at]
    groups = np.empty((2, len(x), 2))
    np.floor(m / div, out=groups[0, :, 1])
    np.multiply(m - groups[0, :, 1] * div, _MUL[at], out=groups[1, :, 1])
    np.floor(groups[:, :, 1] / 1e4, out=groups[:, :, 0])
    groups[:, :, 1] -= groups[:, :, 0] * 1e4
    g = groups.astype(np.intp)
    left, right = _DIGITS[g].view(_U)[:, :, 0]
    end = np.maximum(np.maximum(_END[0][g[0, :, 0]], _END[1][g[0, :, 1]]),
                     np.maximum(_END[2][g[1, :, 0]], _END[3][g[1, :, 1]]))
    key = at * 17 + end
    tail = _TAIL[:, int(newline)]
    # the digits behind the "." move one byte up, leaving its byte free:
    # x + moved * 255 is x - moved + (moved << 8)
    moved_lo = left & _MOVE_LO[at]
    moved_hi = right & _MOVE_HI[at]
    words[:, 0] = (left + moved_lo * _255) & _MASK[0][key] | tail[0][key]
    words[:, 1] = (right + moved_hi * _255 + (moved_lo >> _56)) & _MASK[1][key] | tail[1][key]
    words[:, 2] = (moved_hi >> _56) & _MASK[2][key] | tail[2][key]
    negative = np.flatnonzero(x < 0)
    if len(negative):  # the words of |x| move up one byte, high ones first
        words[negative, 1:] = words[negative, 1:] << _8 | words[negative, :2] >> _56
        words[negative, 0] = words[negative, 0] << _8 | _MINUS
    slow = np.flatnonzero(~fast)
    if len(slow):  # every other field, negatives too, from "%.12g" itself
        end = "\n" if newline else ","
        text = "".join((("" if v is None else "%.12g" % v) + end).ljust(FIELD, "\0")
                       for v in values[slow].tolist())
        words[slow] = np.frombuffer(text.encode("ascii"), dtype=_U).reshape(-1, 3)


def rows_g12(*columns) -> str:
    """The lines of "%.12g" fields, one per row of the equal-length
    columns, joined by "," and ended by "\\n"; None is an empty field."""
    values = [np.asarray(c) for c in columns]
    rows = len(values[0])
    if any(len(v) != rows for v in values):
        raise ValueError(f"columns must have equal lengths, got {[len(v) for v in values]}")
    words = np.empty((rows, len(values), 3), dtype=_U)
    for j, v in enumerate(values):
        _fields(v.astype(float, copy=False), j == len(values) - 1, words[:, j], v)
    return words.tobytes().translate(None, b"\0").decode("ascii")
