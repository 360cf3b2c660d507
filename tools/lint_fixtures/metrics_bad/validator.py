# Fixture validator: the check below tests a name no catalog entry covers,
# and the catalog carries 'fixture.dead.family', which nothing registers.


def check_obs(obs):
    return obs.get("fixture.unknown_name", 0) >= 0
