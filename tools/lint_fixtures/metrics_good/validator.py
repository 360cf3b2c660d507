# Fixture validator: it tests only names the catalog lists.


def check_obs(obs):
    return obs.get("fixture.requests", 0) >= 0
