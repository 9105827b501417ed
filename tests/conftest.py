"""The one Hypothesis profile of the test suite, loaded before any test
module is collected.  It sets no deadline, since a pause of a shared machine
is not a failure, and it prints the `@reproduce_failure` blob of a failing
example, so a failure seen in CI can be replayed as it ran there."""

from hypothesis import settings

settings.register_profile("argstable", deadline=None, print_blob=True)
settings.load_profile("argstable")
