"""``python -m parsnet``: the command line of :mod:`parsnet.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
