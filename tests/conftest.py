import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# property tests draw the same examples on every run and write no example
# database, so the suite stays deterministic
settings.register_profile("relkd", derandomize=True, database=None, deadline=None)
settings.load_profile("relkd")
