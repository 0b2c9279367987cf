"""Corpus-based morphological complexity measures for CoNLL-U treebanks.

Importing the package pins OpenBLAS to one thread, since a run's
parallelism is its ``jobs`` processes; a value the user set wins, and a
process that loaded numpy before this package keeps its BLAS default.
Each measuring process may also run one short-lived helper thread for
``ws``'s zlib call, which releases the GIL.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
