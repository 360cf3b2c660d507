// Fixture: kEcho's owner never dispatches it, kPing is dispatched by a
// family that does not own it, and kStray names an owner with no server.
#pragma once

#define MAYFLOWER_RPC_METHODS(X)           \
  X(kEcho, 1, EchoReq, EchoResp, "server") \
  X(kPing, 2, NoBody, NoBody, "server")    \
  X(kStray, 3, NoBody, NoBody, "nobody")
