package serving

// Names the one-host-fleet tests (package serving_test, which may import
// cluster) share with the in-package tests.
var Fixture = fixture

const RemoteRTT = remoteRTT
