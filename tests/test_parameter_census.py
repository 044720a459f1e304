"""No parameter default exists that only a test overrides, and none that
every call overrides."""


def test_every_defaulted_parameter_is_passed_or_allowed(reachability):
    # (parameters no call in src/, benchmark/ or scripts/ passes,
    #  defaults no call there relies on); there is no allowlist
    assert reachability.parameter_census() == ([], [])
    assert not hasattr(reachability, "PARAMETERS")
