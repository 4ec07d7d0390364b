"""Run the ``sltkit`` command as ``python -m sltkit``."""

from .cli import run

if __name__ == "__main__":
    run()
