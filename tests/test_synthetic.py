import pytest

from crossdisp import bubble_panel

# each set of parameters and a fragment of the ValueError it raises
REJECTED = {
    "cohort": (dict(n_stocks=5, n_boosted=6), "boosted cohort cannot exceed the universe"),
    "boost window": (dict(boost_start=300, boost_end=200), "boost window must fit inside"),
    "reversion": (dict(n_days=300, reversion_days=60), "reversion must finish inside"),
}


@pytest.mark.parametrize("case", REJECTED.values(), ids=REJECTED)
def test_rejected_parameters_raise(case):
    params, fragment = case
    with pytest.raises(ValueError, match=fragment):
        bubble_panel(**params)
