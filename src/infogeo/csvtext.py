"""CSV text of sampled series, every value exactly as ``"%.17g" % value``.

``series_to_csv`` formats a whole table in a few numpy passes:

* **Digits.**  For each cell X = floor(log10 |x|), and |x| * 10**(16 - X) is
  formed as a double-double: a product split into exact parts (Dekker), with
  10**(16 - X) held as hi + lo.  Its error is below 1e-14 (the table's
  5e-32 relative, the rounding of the last two sums), so the rounded 17-digit
  integer D is certain unless the fraction lies within 1e-9 of 1/2.
  D must also lie in [10**16, 10**17), with D = 10**16 refused when the
  fraction is near 0 (|x| may then lie just below 10**X, and X is wrong).
* **Text.**  Each cell is four 64-bit words of a zeroed buffer, each word
  written whole: the sign and "0.000" prefix with the lead digit, two
  words of four-digit chunks read from a table of their ASCII bytes, and
  the ``e+XX`` suffix with the separator, all from X as ``%g`` places them.
  Three masks, one row per (digits before the point, significant digits),
  then keep the bytes that stay, move the digits before the point down
  one byte (read from the cell one byte on) and put in the '.'.  Every
  pass runs over the whole contiguous table.  Zero bytes, the dropped
  trailing zeros and the gap before the suffix among them, are removed
  once from the whole table.
* **Fallback.**  Every cell not certified, that is ±0, inf, nan, |x| below
  2e-292, a near-tie (exact 18-digit ties such as odd / 2**17 in [1, 10)
  among them) or a wrong X, is formatted by ``"%.17g" % x`` itself.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_SPLIT = _U64(0xFFFFFFFFF8000000)   # keeps a double's upper 26 significand bits
_X_MIN = -292                       # the smallest X certified: 10**(16 - X) stays a double


def _split(v):
    """v = hi + lo with hi of 26 significant bits and lo of 27: their products
    are exact, or nearly so for lo * lo."""
    hi = (v.view(_U64) & _SPLIT).view(np.float64)
    return hi, v - hi


def _scales():
    """hi + lo = 10**(16 - X) within 5e-32 relative, for X = -292 .. 308 (index
    X + 292): 10**(22 i + j) as the exact int 10**(22 i), rounded twice, times
    the double 10**j; 10**-m as the reciprocal q of 10**m, with lo = q times
    the residual 1 - q 10**m."""
    anchors = [10 ** (22 * i) for i in range(15)]
    ah = np.array([float(t) for t in anchors])
    al = np.array([float(t - int(h)) for t, h in zip(anchors, ah.tolist())])
    small = np.array([float(10 ** j) for j in range(22)])
    (a1, a2), (s1, s2) = _split(ah[:14, None]), _split(small)
    hi = ah[:14, None] * small
    lo = (((a1 * s1 - hi) + a1 * s2 + a2 * s1) + a2 * s2) + al[:14, None] * small
    hi, lo = np.append(hi, ah[14]), np.append(lo, al[14])      # 10**0 .. 10**308
    q = 1.0 / hi[1:293]
    (qh, ql), (bh, bl) = _split(q), _split(hi[1:293])
    prod = q * hi[1:293]
    residual = (1.0 - prod) - (((qh * bh - prod) + qh * bl + ql * bh) + ql * bl) - q * lo[1:293]
    return np.concatenate([hi[::-1], q]), np.concatenate([lo[::-1], q * residual])


def _chunk_tables():
    """For each chunk 0 .. 9999: its four ASCII digits as the low half of a
    little-endian 64-bit word, and by the chunk's place j among the four
    after the lead digit, the cell's significant digits up to the chunk's
    last nonzero one (1, the lead digit, for the chunk 0)."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        digits[..., k] = np.arange(48, 58, dtype=np.uint8).reshape(-1, *[1] * (3 - k))
    digits = digits.reshape(10000, 4)
    last = np.zeros(10000, np.int8)
    for k in range(4):
        last[digits[:, k] != 48] = k + 1
    nsig = [np.where(last > 0, last + np.int8(1 + 4 * j), np.int8(1)) for j in range(4)]
    return digits.view("<u4").ravel().astype(_U64), nsig


def _byte_masks(start, end, value=255):
    """Rows of a cell's four little-endian words, ``value`` in the bytes
    [start, end) of each row (a scalar bound serves every row)."""
    byte = np.arange(32)
    inside = (byte >= np.reshape(start, (-1, 1))) & (byte < np.reshape(end, (-1, 1)))
    return np.where(inside, value, 0).astype(np.uint8).view("<u8")


def _word(text: str, end: int) -> int:
    """The ASCII ``text`` as a little-endian word, its last byte at byte end - 1."""
    return int.from_bytes(text.encode(), "little") << 8 * (end - len(text))


def _exponent_tables():
    """Per X + 292: 18 times the digits before the point (0 where the "0.000"
    prefix holds them), X's first row of the masks below; the text before the
    digits per sign (+, -) in the cell's first word; and the text after them
    per separator (",", "\\n") from byte 0 of a word."""
    x = np.arange(_X_MIN, 309)
    fixed = (x >= -4) & (x < 17)                    # %g's fixed notation at precision 17
    before_point = np.where(fixed, np.maximum(x + 1, 0), 1)
    head = np.zeros((len(x), 2), _U64)
    head[:, 1] = _word("-", 6)
    for e in range(-4, 0):
        head[e - _X_MIN] = [_word(sign + "0." + "0" * (-e - 1), 7) for sign in ("", "-")]
    exp = np.array([b"" if f else b"e%+03d" % e
                    for e, f in zip(x.tolist(), fixed.tolist())], "S8")
    length = np.where(fixed, 0, np.where(np.abs(x) < 100, 4, 5)).astype(_U64)
    tail = exp.view("<u8")[:, None] | np.array([ord(","), ord("\n")], _U64) << (8 * length[:, None])
    return 18 * before_point, head, tail


def _mask_tables():
    """Per row 18 q + nsig, for q digits before the point and nsig significant
    ones, a cell's digits built at bytes 7 .. 23 and its tail at 24 .. 31:
    the bytes that stay, those the q digits move to (6 .. 5 + q, each taking
    the byte after it) and the '.' at 6 + q where a fraction is left (none
    for q = 0: the "0." prefix holds it); the digits end before byte `end`."""
    q, nsig = np.divmod(np.arange(18 * 18), 18)
    end = np.where(nsig > q, 7 + nsig, 6 + q)
    stay = _byte_masks(0, 7) | _byte_masks(7 + q, end) | _byte_masks(24, 32)
    dot = _byte_masks(6 + q, np.where((q > 0) & (end > 6 + q), 7 + q, 0), ord("."))
    return stay, _byte_masks(6, 6 + q), dot


_HI, _LO = _scales()
_HH, _HL = _split(_HI)
_ASCII4, _NSIG = _chunk_tables()
_Q18, _HEAD, _TAIL = _exponent_tables()
_STAY, _MOVE, _DOT = _mask_tables()


def series_to_csv(kind: str, names, cols) -> str:
    """A ``# infogeo <kind> csv schema=1`` file: the header ``names``, then
    one row per sample of the columns ``cols`` (1-D, or 2-D blocks of
    columns), each value as %.17g, which parses back to the exact double.

    The text is the bytes ``"%.17g" % value`` gives, formed a table at a time
    (see the module docstring): 17 digits from a double-double product of |x|
    and a power of ten, correct when its error (< 1e-14) cannot move the
    rounding, and Python's formatter for every other cell."""
    table = np.column_stack(cols).astype(np.float64, copy=False)
    rows, ncol = table.shape
    x = table.ravel()
    n = x.size
    a = np.abs(x)
    # 2e-292: floor(log10 a) >= -292 however log10 rounds; nan fails both tests
    ok = (a >= 2e-292) & (a < np.inf)
    np.copyto(a, 1.0, where=~ok)
    ix = (np.log10(a) + 292.0).astype(np.intp)          # X + 292
    # P = a * 10**(16 - X) = p + r, p = fl(a * hi) an integer once P >= 2**53
    p = a * _HI.take(ix)
    ah, al = _split(a)
    hh, hl = _HH.take(ix), _HL.take(ix)
    r = ah * hh
    r -= p
    ah *= hl
    r += ah
    hh *= al
    r += hh
    al *= hl
    r += al
    a *= _LO.take(ix, out=hl)
    r += a
    del a, ah, al, hh, hl
    rr = np.rint(r)
    r -= rr                                             # P - D
    D = p.astype(np.int64)
    D += rr.astype(np.int64)
    del p, rr
    ok &= np.abs(r) < 0.5 - 1e-9
    ok &= D + (r > 1e-9) > 10 ** 16
    ok &= D < 10 ** 17
    del r
    # D = lead 10**16 + c1 10**12 + c2 10**8 + c3 10**4 + c4
    c2 = D // 10 ** 8
    c4 = D - c2 * 10 ** 8
    del D
    lead = c2 // 10 ** 8
    c2 -= lead * 10 ** 8
    c1, c3 = c2 // 10000, c4 // 10000
    c2 -= c1 * 10000
    c4 -= c3 * 10000
    header = f"# infogeo {kind} csv schema=1\n{','.join(names)}\n".encode()
    start = len(header) + -len(header) % 8      # the cells start on a word boundary
    # zeroed, so no pass clears a byte; the word to spare is read by the view
    # one byte on below, from the last cell
    text = np.zeros(start + 32 * n + 8, np.uint8)
    text[:len(header)] = np.frombuffer(header, np.uint8)
    W = text[start:start + 32 * n].view("<u8").reshape(n, 4)   # a cell's bytes in text order
    # each word written whole: the sign and "0.000" prefix (bytes 0 .. 6) with
    # the lead digit (7), two chunks a word (8 .. 23), and the tail (24 ..)
    ix2 = 2 * ix
    lead += 48
    lead <<= 56
    W[:, 0] = _HEAD.take(ix2 + np.signbit(x)) | lead.view(_U64)
    W[:, 1] = _ASCII4.take(c2) << _U64(32) | _ASCII4.take(c1)
    W[:, 2] = _ASCII4.take(c4) << _U64(32) | _ASCII4.take(c3)
    ix2.reshape(rows, ncol)[:, -1] += 1
    W[:, 3] = _TAIL.take(ix2)
    nsig = np.maximum(np.maximum(_NSIG[0].take(c1), _NSIG[1].take(c2)),
                      np.maximum(_NSIG[2].take(c3), _NSIG[3].take(c4)))
    del c1, c2, c3, c4, lead
    mask_row = _Q18.take(ix) + nsig
    # the cells read one byte on, so word k is (W[k] >> 8) | (W[k + 1] << 56)
    # over the flat words: _MOVE keeps its bytes 6 .. 5 + q <= 22, the cell's
    # digits 7 .. 6 + q, and never the byte it reads past the cell
    moved = np.take(_MOVE, mask_row, axis=0)
    moved &= np.ndarray((n, 4), "<u8", text, start + 1, (32, 8))
    W &= np.take(_STAY, mask_row, axis=0)
    W |= moved
    W |= np.take(_DOT, mask_row, axis=0, out=moved, mode="clip")   # "raise" buffers out
    del moved
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        cells = ["%.17g%s" % (v, "\n" if i % ncol == ncol - 1 else ",")
                 for i, v in zip(fallback.tolist(), x[fallback].tolist())]
        W.view(np.uint8)[fallback] = np.array(cells, "S32").view(np.uint8).reshape(-1, 32)
    return str(text[text != 0].data, "utf-8")
