"""RFC 1071 Internet checksum."""

from __future__ import annotations


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """One's-complement sum of 16-bit words, as used by IP/ICMP/UDP/TCP.

    Odd-length input is padded with a zero byte, per RFC 1071. ``initial``
    is a non-negative integer added to the word sum before folding: header
    fields and the pseudo-header go in as plain integers, so a payload is
    never copied behind them just to be summed.

    ``2**16 % 0xFFFF == 1``, so the whole buffer read as one big-endian
    integer is congruent to the sum of its words and one C-level modulo
    replaces the per-word loop. The folded one's-complement sum of a
    non-zero buffer lies in 1..0xFFFF, never 0, which is the only case the
    modulo cannot tell apart: a non-zero total that is a multiple of 0xFFFF
    folds to 0xFFFF (checksum 0), an all-zero one to 0 (checksum 0xFFFF).
    """
    value = int.from_bytes(data, "big")
    total = value % 0xFFFF
    if len(data) & 1:
        total <<= 8
    total = (total + initial) % 0xFFFF
    if total:
        return 0xFFFF - total
    return 0 if value or initial else 0xFFFF


def pseudo_header_sum(src: int, dst: int, proto: int, length: int) -> int:
    """IPv4 pseudo-header of UDP/TCP checksums, as an ``initial`` sum."""
    return (src & 0xFFFFFFFF) + (dst & 0xFFFFFFFF) + (proto & 0xFF) + (length & 0xFFFF)
