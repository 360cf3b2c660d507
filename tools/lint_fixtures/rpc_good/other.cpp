// Fixture: the second server family answers only the shared kPing.
namespace fixture {

void serve_other(Method method) {
  if (method == Method::kPing) {
    return;
  }
}

}  // namespace fixture
