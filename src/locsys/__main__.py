"""`python -m locsys <command>`: the same front end as the `locsys` script."""

import sys

from .cli import main

sys.exit(main())
