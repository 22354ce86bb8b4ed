"""`python -m jlolab`: the same command line as the `jlolab` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
