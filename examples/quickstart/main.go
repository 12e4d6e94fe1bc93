// Quickstart: start the user-space NFS server on real loopback sockets,
// mount it with both the UDP and TCP clients, and do ordinary file work.
// This is the five-minute tour of the public API over genuine sockets.
package main

import (
	"fmt"
	"log"

	"renonfs/internal/memfs"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
)

func main() {
	// 1. An in-memory filesystem and a Reno-personality server.
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	s, err := nfsnet.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	fmt.Printf("serving NFS v2 on udp %s and tcp %s\n", s.UDPAddr(), s.TCPAddr())

	// 2. A UDP client creates a directory tree and a file.
	udp, err := nfsnet.DialUDP(s.UDPAddr())
	if err != nil {
		log.Fatal(err)
	}
	defer udp.Close()
	// Bootstrap the way a real client does: ask mountd for the root handle.
	mnt, err := udp.Mnt("/")
	if err != nil || mnt.Status != 0 {
		log.Fatalf("mount: %v %v", mnt, err)
	}
	root := mnt.File
	fmt.Println("mounted / via the MOUNT protocol")

	dir, err := udp.Mkdir(root, "notes", 0755)
	if err != nil || dir.Status != nfsproto.OK {
		log.Fatalf("mkdir: %v %v", dir, err)
	}
	file, err := udp.Create(dir.File, "today.txt", 0644)
	if err != nil || file.Status != nfsproto.OK {
		log.Fatalf("create: %v %v", file, err)
	}
	msg := []byte("TCP turns out to be a perfectly good NFS transport.\n")
	if _, err := udp.Write(file.File, 0, msg); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("wrote %d bytes over UDP\n", len(msg))

	// 3. A TCP client reads the same file back — same server state,
	// different transport (the paper's §2 independence claim, live).
	tcp, err := nfsnet.DialTCP(s.TCPAddr())
	if err != nil {
		log.Fatal(err)
	}
	defer tcp.Close()
	look, err := tcp.Lookup(dir.File, "today.txt")
	if err != nil || look.Status != nfsproto.OK {
		log.Fatalf("lookup: %v %v", look, err)
	}
	rd, err := tcp.Read(look.File, 0, 1024)
	if err != nil || rd.Status != nfsproto.OK {
		log.Fatalf("read: %v %v", rd, err)
	}
	fmt.Printf("read back over TCP: %s", rd.Data.Bytes())

	// 4. Directory listing and cleanup.
	ls, err := tcp.Readdir(dir.File, 0, 4096)
	if err != nil || ls.Status != nfsproto.OK {
		log.Fatalf("readdir: %v %v", ls, err)
	}
	fmt.Print("notes/ contains:")
	for _, e := range ls.Entries {
		fmt.Printf(" %s", e.Name)
	}
	fmt.Println()
	if _, err := udp.Remove(dir.File, "today.txt"); err != nil {
		log.Fatalf("remove: %v", err)
	}
	fmt.Printf("server handled %d RPCs\n", srv.Calls())
}
