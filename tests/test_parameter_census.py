"""No parameter default exists that only a test overrides."""


def test_every_defaulted_parameter_is_passed_or_allowed(reachability):
    # (parameters no call in src/, benchmark/ or scripts/ passes,
    #  allowlist entries that are passed or undefined)
    assert reachability.parameter_census() == ([], [])
