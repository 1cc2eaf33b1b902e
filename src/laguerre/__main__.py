"""``python -m laguerre``: the command line through ``cli.entry``, which ends
the process with ``os._exit`` once the output is flushed."""

from .cli import entry

if __name__ == "__main__":
    entry()
