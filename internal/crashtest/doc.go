// Package crashtest is the crash-injection sweep behind the durability
// guarantees. Its tests run a scripted durable workspace on an armed
// vfs.MemFS, kill the write stream at every chosen byte offset, reboot
// the disk image under both power-loss policies, recover a workspace
// from each image, and assert it is identical to a never-crashed twin
// at the same committed prefix. The fault model is documented on
// vfs.MemFS.
package crashtest
