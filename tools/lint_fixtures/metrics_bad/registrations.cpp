// Fixture: one unknown registration, one kind mismatch, and the catalog
// carries a dead entry while the validator tests an uncatalogued name (4
// findings total across this tree).
namespace fixture {

void register_all(Registry& registry) {
  registry.counter("fixture.requests");  // known, right kind: clean
  registry.counter("fixture.mystery");   // not in the catalog
  registry.counter("fixture.depth");     // catalog says gauge: mismatch
}

}  // namespace fixture
