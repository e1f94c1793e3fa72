"""Entry point for ``python -m sconvexlab``."""

from .cli import main

if __name__ == "__main__":
    main()
