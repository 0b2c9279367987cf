"""Session setup shared by every test module."""

import contextlib
import warnings

# On a failing test, hypothesis's pytest plugin imports its patch writer,
# which imports libcst and through it mypy_extensions; that import warns
# DeprecationWarning, which pyproject's filterwarnings turns into an internal
# error that ends the session without a failure summary.  Importing it here
# once, with the warning ignored, leaves the filters in force for the tests.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
