"""Exception types shared across the package, the checks of config
values that raise ConfigError, and the readers of text and JSON files.

Parsing and configuration problems subclass ValueError so callers that
treat bad input generically keep working; data-adequacy problems
subclass RuntimeError because the input was well formed but the
pipeline cannot proceed with it.
"""

from __future__ import annotations

import json


class ParseError(ValueError):
    """A delimited-text row or header could not be interpreted."""


class SchemaError(ValueError):
    """A value or column contradicts the declared schema."""


class DecodeError(SchemaError):
    """A numeric value has no symbol under a categorical encoding."""


class ConfigError(ValueError):
    """A run or experiment configuration is invalid."""


class InsufficientDataError(RuntimeError):
    """Too little usable data to run the requested computation."""


class NoDonorsError(InsufficientDataError):
    """No complete records are available to donate values."""


class CannotClassifyError(RuntimeError):
    """Training data carries no labels to assign."""


def config_integer(value, name: str) -> int:
    """A config value that must be an integer; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def config_bool(value, name: str) -> bool:
    """A config value that must be JSON true or false."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def config_number(value, name: str) -> float:
    """A config value that must be a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of range: {value}") from None


def config_path(value, name: str) -> str:
    """A config value that names a file: a string holding no NUL byte."""
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(f"{name} must be a file path, got {value!r}")
    return value


def config_seed(value, name: str) -> int:
    """A seed config value: a non-negative integer, as NumPy's generators take."""
    if config_integer(value, name) < 0:
        raise ConfigError(f"{name} must be non-negative, got {value}")
    return value


def read_text(path: str, error_type: type[ValueError] = ParseError) -> str:
    """The file's contents as UTF-8 text; other bytes raise error_type."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error_type(f"{path}: not UTF-8 text ({exc})") from None


def read_json(path: str, error_type: type[ValueError]):
    """The JSON value in a UTF-8 file.  Text that is not UTF-8, or not
    JSON that Python can read (an integer past the digit limit or
    nesting past the recursion limit included), raises error_type
    naming the path."""
    text = read_text(path, error_type)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error_type(f"{path}: not valid JSON ({exc})") from None
