"""Setup shared by every test module.

Some criteria tests fork workers from the pytest process, as the CLI's
``criteria`` subcommand does. A process that runs threads should not fork
(Python 3.12 warns when it does), and numpy starts one OpenBLAS thread per
CPU unless told otherwise. So, like ``homlab.cli``, the suite asks for one
before numpy loads; an explicit setting in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
