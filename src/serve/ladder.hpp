// LadderConfig is empty: every window is classified on the fp32 model.
// ServerConfig::ladder and SessionEnv::ladder keep the type only so
// existing callers that assign them still compile; nothing reads it.
#pragma once

namespace affectsys::serve {

struct LadderConfig {};

}  // namespace affectsys::serve
