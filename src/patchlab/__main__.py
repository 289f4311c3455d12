"""``python -m patchlab``: the ``patchlab`` command line."""

from .cli import main

__all__ = []

if __name__ == "__main__":
    raise SystemExit(main())
