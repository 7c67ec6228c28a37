"""Suite-wide settings: Hypothesis runs a fixed, derandomized example set."""

try:
    from hypothesis import settings
except ImportError:  # the property-test modules skip themselves
    pass
else:
    settings.register_profile(
        "semishift", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("semishift")
