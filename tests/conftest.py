"""Setup shared by every test module.

Some criteria tests fork workers from the pytest process, as the CLI's
``criteria`` subcommand does. A process that runs threads should not fork
(Python 3.12 warns when it does), and numpy starts one OpenBLAS thread per
CPU unless told otherwise. So, like ``homlab.cli``, the suite asks for one
before numpy loads; an explicit setting in the environment wins.

The loaders cache their parsed arrays under ``$XDG_CACHE_HOME/homlab``. The
suite points that at a directory of its own, made fresh for each session,
so no test reads or writes the user's cache and no entry left by an earlier
session can stand in for a parse.
"""

import atexit
import os
import shutil
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(prefix="homlab-test-cache-")
atexit.register(shutil.rmtree, os.environ["XDG_CACHE_HOME"], ignore_errors=True)
