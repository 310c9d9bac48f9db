"""One hypothesis profile for every property test: no per-example deadline,
which a slow or shared host would trip, and examples derived from each
test itself, so every run checks the same cases."""
from hypothesis import settings

settings.register_profile("regkit", deadline=None, derandomize=True)
settings.load_profile("regkit")
