// Fixture: the server owning kEcho never dispatches it.
namespace fixture {

void serve(Method method) {
  if (method == Method::kPing) {
    return;
  }
}

}  // namespace fixture
