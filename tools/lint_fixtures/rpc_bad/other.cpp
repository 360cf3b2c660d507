// Fixture: this family answers kPing, whose row does not name it.
namespace fixture {

void serve_other(Method method) {
  if (method == Method::kPing) {
    return;
  }
}

}  // namespace fixture
