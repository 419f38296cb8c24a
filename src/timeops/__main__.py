"""``python -m timeops``: the same command line as ``timeops.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
