"""Logging helpers.

The library never configures a logger.  Modules obtain loggers through
:func:`get_logger` so that all library loggers live under the ``repro``
namespace and can be silenced or redirected in one call.
"""

from __future__ import annotations

import logging
from typing import Optional

_ROOT_NAME = "repro"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a library logger.

    Parameters
    ----------
    name:
        Dotted sub-name, usually ``__name__`` of the calling module.  Names
        outside the ``repro`` namespace are re-rooted under it.
    """
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if not name.startswith(_ROOT_NAME):
        name = f"{_ROOT_NAME}.{name}"
    return logging.getLogger(name)
