from hypothesis import settings

# Property tests run a fixed example sequence so the suite is reproducible,
# and with no deadline because a loaded machine can stall any one example.
settings.register_profile("repro", deadline=None, derandomize=True, database=None)
settings.load_profile("repro")
