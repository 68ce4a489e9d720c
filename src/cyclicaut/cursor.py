"""The text cursor behind the curve, presentation and permutation parsers.

Each read skips whitespace first, and tokens are single characters.  A
syntax error names the parser and the position the cursor stopped at.
"""

from __future__ import annotations

from .numtheory import DomainError


class Cursor:
    def __init__(self, text: str, what: str):
        self.text = text
        self.pos = 0
        self.what = what  # "curve", "presentation" or "permutation", for the error text

    def error(self, msg: str) -> DomainError:
        return DomainError(f"{self.what} syntax error at position {self.pos}: {msg}")

    def peek(self) -> str | None:
        """The next character after whitespace, or None at the end."""
        text = self.text
        while self.pos < len(text) and text[self.pos].isspace():
            self.pos += 1
        return text[self.pos] if self.pos < len(text) else None

    def try_take(self, token: str) -> bool:
        """Take the one-character ``token`` if it comes next."""
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    def take(self, token: str) -> None:
        if not self.try_take(token):
            raise self.error(f"expected {token!r}")

    def take_uint(self) -> int:
        self.peek()
        text, start = self.text, self.pos
        while self.pos < len(text) and text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise self.error(f"integer of {self.pos - start} digits is too long") from None

    def take_name(self) -> str:
        """A generator name: a letter or underscore, then letters, digits and
        underscores."""
        c = self.peek()
        if c is None or not (c.isalpha() or c == "_"):
            raise self.error("expected a generator name")
        text, start = self.text, self.pos
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        return text[start : self.pos]
