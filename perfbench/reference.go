package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The reference round trip. On a shared VM the speed of the machine
// swings by up to 2x over minutes: every request latency of a run moves
// with it, so the raw medians of ten runs spread by 20-35% however
// long the runs are. Each timed request is therefore followed at once
// by one round trip to a reference server, and the bounded end-to-end
// metrics are the median, over a class's requests, of the request's
// latency divided by the latency of the round trip that followed it.
// The reference sees the same spell of the machine as the request, and
// it runs none of choreod's code, so a change to choreod moves the
// ratio and a change of machine speed mostly does not.
//
// The reference server is this program started again with -reference:
// a separate process on loopback HTTP, like choreod, that decodes a
// fixed JSON body, folds it into a map, sorts the keys and encodes
// them back. It uses the standard library only.

// refItem is one element of the reference request body.
type refItem struct {
	Name  string   `json:"name"`
	Value int      `json:"value"`
	Tags  []string `json:"tags"`
}

// refBody is the fixed reference request: 60 items, about 3 KB.
func refBody() []byte {
	items := make([]refItem, 60)
	for i := range items {
		items[i] = refItem{Name: "item" + strconv.Itoa(i), Value: i, Tags: []string{"a", "b", "c" + strconv.Itoa(i%7)}}
	}
	body, err := json.Marshal(items)
	if err != nil {
		panic(err)
	}
	return body
}

func refHandler(w http.ResponseWriter, r *http.Request) {
	var items []refItem
	if err := json.NewDecoder(r.Body).Decode(&items); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sums := map[string]int{}
	for _, it := range items {
		for _, t := range it.Tags {
			sums[it.Name+"/"+t] += it.Value
		}
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	_ = json.NewEncoder(w).Encode(keys)
}

// serveReference is the reference server's main: it listens on a free
// loopback port, prints the address as its first line of output and
// serves until it is killed.
func serveReference() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr().String())
	return http.Serve(ln, http.HandlerFunc(refHandler))
}

// reference is a running reference server and the one connection the
// benchmark keeps to it.
type reference struct {
	cmd    *exec.Cmd
	done   chan struct{}
	addr   string
	body   []byte
	client *http.Client
}

// startReference starts the reference server and returns once a round
// trip to it succeeds.
func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &reference{cmd: exec.Command(self, "-reference"), done: make(chan struct{}), body: refBody(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}}
	r.cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it ends.
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference server: %w", err)
	}
	go func() {
		_ = r.cmd.Wait()
		close(r.done)
	}()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		r.stop()
		return nil, fmt.Errorf("reference server: %w", err)
	}
	r.addr = "http://" + strings.TrimSpace(line)
	if _, err := r.roundTrip(); err != nil {
		r.stop()
		return nil, fmt.Errorf("reference server: %w", err)
	}
	return r, nil
}

// roundTrip times one reference request.
func (r *reference) roundTrip() (time.Duration, error) {
	t0 := time.Now()
	resp, err := r.client.Post(r.addr, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("reference server: %s", resp.Status)
	}
	return time.Since(t0), err
}

// stop kills the reference server and waits for it to exit.
func (r *reference) stop() {
	r.client.CloseIdleConnections()
	_ = r.cmd.Process.Kill()
	<-r.done
}
