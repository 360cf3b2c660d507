// Fixture: every registration is in the catalog with the right kind,
// including one dynamic (concatenated) site.
namespace fixture {

void register_all(Registry& registry, int shard) {
  registry.counter("fixture.requests");
  registry.gauge("fixture.depth");
  registry.counter("fixture.shard." + std::to_string(shard) + ".ops");
}

}  // namespace fixture
