// Fixture: decision code reaching past the NetworkView. Exactly six
// violations — the comment and string mentions of flow_sim must NOT count.
namespace fixture {

struct Fabric {
  int flow_sim() { return 0; }      // violation 1: names raw sim state
  double port_bytes_now = 0.0;
};

inline double peek(Fabric& f) {
  // flow_sim in prose is fine; the call below is not.
  const char* note = "flow_sim";     // string mention: fine
  (void)note;
  return static_cast<double>(f.flow_sim()) + f.port_bytes_now;  // violation 2
}

inline int peek_table(Fabric& f) {
  (void)f;
  return f.switch_at(3);             // violation 3: raw switch table access
}

inline int peek_shard(Fabric& f) {
  (void)f;
  // shard_version in prose is fine; the call below is not.
  return f.shard_version(2);         // violation 4: shard bookkeeping
}

inline int peek_meta(Fabric& f) {
  (void)f;
  // owner_of_path in prose is fine; the call below is not.
  return f.owner_of_path(7);         // violation 5: metadata shard routing
}

inline void peek_sync(Fabric& f) {
  (void)f;
  // sync_shard_into in prose is fine; the call below is not.
  f.table.sync_shard_into(f.view, 0);  // violation 6: view refresh internals
}

}  // namespace fixture
