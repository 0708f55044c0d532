"""Bit-level utilities used by coding, decoding, and simulation.

Everything here works on plain Python integers.  Register and memory
contents are stored as *unsigned* values of the declared width; helpers
convert to and from two's-complement signed interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.support.errors import CodingError


def mask(width):
    """Return an all-ones mask of ``width`` bits (``mask(4) == 0b1111``)."""
    if width < 0:
        raise ValueError("mask width must be non-negative, got %d" % width)
    return (1 << width) - 1


def bit_length_for(value):
    """Number of bits needed to represent the non-negative ``value``.

    Unlike ``int.bit_length`` this returns 1 for zero, because a coding
    field can never be zero bits wide.
    """
    if value < 0:
        raise ValueError("bit_length_for expects a non-negative value")
    return max(1, value.bit_length())


def fits_field(value, width):
    """Whether ``value`` fits a ``width``-bit coding field, signed or
    unsigned (``None``, an unbound constant, does not): the range rule
    of the assembler and of the LISA guard check alike."""
    if value is None:
        return False
    if value < 0:
        return value >= -(1 << (width - 1))
    return not value >> width


def to_unsigned(value, width):
    """Two's-complement encode ``value`` into ``width`` bits."""
    return value & mask(width)


def to_signed(value, width):
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    value &= mask(width)
    sign_bit = 1 << (width - 1)
    if value & sign_bit:
        return value - (1 << width)
    return value


def sign_extend(value, from_width, to_width=None):
    """Sign-extend the ``from_width``-bit ``value``.

    With ``to_width`` the result is re-encoded unsigned into that many
    bits; without it the (possibly negative) Python integer is returned.
    """
    signed = to_signed(value, from_width)
    if to_width is None:
        return signed
    return to_unsigned(signed, to_width)


def extract_field(word, offset, width, word_width):
    """Extract ``width`` bits at ``offset`` from the MSB side of ``word``.

    Coding fields in a machine description are written left to right
    starting at the most significant bit, so ``offset`` counts from the
    MSB: offset 0 / width 4 of a 16-bit word is bits [15:12].
    """
    shift = word_width - offset - width
    if shift < 0:
        raise CodingError(
            "field (offset=%d, width=%d) does not fit in a %d-bit word"
            % (offset, width, word_width)
        )
    return (word >> shift) & mask(width)


def insert_field(word, value, offset, width, word_width):
    """Inverse of :func:`extract_field`: place ``value`` into ``word``."""
    shift = word_width - offset - width
    if shift < 0:
        raise CodingError(
            "field (offset=%d, width=%d) does not fit in a %d-bit word"
            % (offset, width, word_width)
        )
    field_mask = mask(width) << shift
    return (word & ~field_mask) | ((value & mask(width)) << shift)


def canonicalize(value, width, signed):
    """Encode ``value`` into the canonical storage form of a resource.

    Resources of a declared width store their contents masked to that
    width; *signed* resources store the two's-complement interpretation
    as a (possibly negative) Python integer, so that reads -- which
    dominate simulation time -- need no conversion.  This is the single
    source of truth for the write-canonicalisation formula shared by
    the behaviour evaluator, the code generator and the SimIR backends
    (:func:`canonical_source` renders the same arithmetic as Python
    source text).
    """
    value &= mask(width)
    if signed and value >= (1 << (width - 1)):
        return value - (1 << width)
    return value


def canonical_source(value_source, width, signed):
    """Python source text computing ``canonicalize(value_source, ...)``.

    The emitted arithmetic must agree bit-for-bit with
    :func:`canonicalize` for every integer input; the property tests
    exercise the agreement exhaustively over small widths.
    """
    if signed:
        half = 1 << (width - 1)
        return "((%s + %d) & %d) - %d" % (
            value_source, half, mask(width), half
        )
    return "(%s) & %d" % (value_source, mask(width))


def saturate_signed(value, width):
    """Clamp ``value`` to the signed range of ``width`` bits.

    This is the DSP saturation arithmetic primitive exposed to the
    behaviour language as ``sat(value, width)``.
    """
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


@dataclass(frozen=True)
class BitPattern:
    """A fixed-width bit pattern with don't-care positions.

    ``value`` holds the cared-about bits, ``care`` has a 1 for every bit
    position that must match.  A pattern written ``0b01x1`` has
    ``width=4``, ``value=0b0101`` (x replaced by 0) and ``care=0b1101``.
    """

    width: int
    value: int
    care: int

    def __post_init__(self):
        if self.width <= 0:
            raise CodingError("bit pattern must have positive width")
        if self.value & ~mask(self.width):
            raise CodingError("pattern value wider than declared width")
        if self.care & ~mask(self.width):
            raise CodingError("pattern care mask wider than declared width")
        if self.value & ~self.care:
            raise CodingError("pattern has value bits outside the care mask")

    @classmethod
    def parse(cls, text):
        """Parse a pattern literal like ``01x1`` (without the 0b prefix)."""
        if not text:
            raise CodingError("empty bit pattern")
        value = 0
        care = 0
        for ch in text:
            value <<= 1
            care <<= 1
            if ch == "0":
                care |= 1
            elif ch == "1":
                value |= 1
                care |= 1
            elif ch in ("x", "X"):
                pass
            else:
                raise CodingError("invalid character %r in bit pattern" % ch)
        return cls(width=len(text), value=value, care=care)

    @classmethod
    def exact(cls, value, width):
        """A pattern with no don't-cares."""
        return cls(width=width, value=value & mask(width), care=mask(width))

    @classmethod
    def any(cls, width):
        """A pattern that matches every ``width``-bit value."""
        return cls(width=width, value=0, care=0)

    @property
    def is_fully_specified(self):
        return self.care == mask(self.width)

    def matches(self, word):
        """True when the ``width`` low bits of ``word`` satisfy the pattern."""
        return (word & self.care) == self.value

    def overlaps(self, other):
        """True when some word matches both patterns (same width required)."""
        if self.width != other.width:
            raise CodingError(
                "cannot compare patterns of width %d and %d"
                % (self.width, other.width)
            )
        common = self.care & other.care
        return (self.value & common) == (other.value & common)

    def concat(self, other):
        """Concatenate: ``self`` in the high bits, ``other`` in the low."""
        return BitPattern(
            width=self.width + other.width,
            value=(self.value << other.width) | other.value,
            care=(self.care << other.width) | other.care,
        )

    def specialise(self, offset, width, value):
        """Return a copy with the sub-field at ``offset`` fixed to ``value``.

        ``offset`` counts from the MSB, like :func:`extract_field`.
        """
        shift = self.width - offset - width
        if shift < 0:
            raise CodingError("sub-field outside pattern")
        field_mask = mask(width) << shift
        return BitPattern(
            width=self.width,
            value=(self.value & ~field_mask) | ((value & mask(width)) << shift),
            care=self.care | field_mask,
        )

    def __str__(self):
        chars = []
        for pos in range(self.width - 1, -1, -1):
            bit = 1 << pos
            if not self.care & bit:
                chars.append("x")
            elif self.value & bit:
                chars.append("1")
            else:
                chars.append("0")
        return "0b" + "".join(chars)
