# Multi-stage build for the service binaries. The module has zero
# dependencies, so the build needs no network beyond the base images.
#
#   docker build --target sweepd -t repro/sweepd .
#   docker build --target cached -t repro/cached .
#
# docker-compose.yml wires both together; see OPERATIONS.md.

FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -o /out/sweepd ./cmd/sweepd \
 && CGO_ENABLED=0 go build -trimpath -o /out/cached ./cmd/cached \
 && CGO_ENABLED=0 go build -trimpath -o /out/sweep ./cmd/sweep

# alpine (not scratch) so compose healthchecks have busybox wget.
FROM alpine:3.20 AS cached
COPY --from=build /out/cached /usr/local/bin/cached
VOLUME /var/cache/repro
EXPOSE 8344
ENTRYPOINT ["cached", "-dir", "/var/cache/repro"]

FROM alpine:3.20 AS sweepd
COPY --from=build /out/sweepd /usr/local/bin/sweepd
# The CLI rides along: `docker exec <ctr> sweep -grid ...` reproduces any
# job's bytes in place, against the same local cache directory.
COPY --from=build /out/sweep /usr/local/bin/sweep
VOLUME /var/cache/sweepd
EXPOSE 8355
ENTRYPOINT ["sweepd", "-cache", "/var/cache/sweepd"]
