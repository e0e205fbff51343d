import os

# numpy's BLAS pool starts a thread per further CPU when numpy is imported,
# and simulate_shared forks its workers only from a single-threaded process.
# The suite pins the pool to one thread, as bench/run.py does, so that it runs
# the forked path in-process; nothing imports numpy before this file.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
