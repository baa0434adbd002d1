"""Coded-compressed-sensing simulation toolkit for unsourced random access."""

from .errors import ConfigError, ResourceRefusalError

__all__ = ["ConfigError", "ResourceRefusalError"]
