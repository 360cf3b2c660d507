// Fixture: every row's owners dispatch its method, and nobody else does.
#pragma once

#define MAYFLOWER_RPC_METHODS(X)           \
  X(kEcho, 1, EchoReq, EchoResp, "server") \
  X(kPing, 2, NoBody, NoBody, "server other")
