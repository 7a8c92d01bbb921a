"""Quaternion algebras and exponent-2 Brauer classes over Q, Q(x), F_p(x)."""

__version__ = "0.1.0"
