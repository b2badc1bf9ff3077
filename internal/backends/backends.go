// Package backends links the SPI backend implementations into a binary.
// Importing it for side effect fills the two accdb/internal/spi factory
// slots: the store (the B+-tree heap) and the lock service (the sharded lock
// manager):
//
//	import _ "accdb/internal/backends"
//
// Composition roots (pkg/acc, the cmd binaries, the examples) blank-import
// this package; internal/core itself deliberately does not, so the scheduler
// stays free of any dependency on concrete backends (see tools/doccheck
// -boundary). A program embedding the engine over its own spi.Store passes
// it with core.WithStore.
package backends

import (
	_ "accdb/internal/lock"    // registers the spi.LockService
	_ "accdb/internal/storage" // registers the B+-tree row store
)
