"""``python -m latescore``: the ``latescore`` command line."""

from .cli import main

raise SystemExit(main())
